//! The measurement runtime: executes a compiled program over the record
//! stream a network produces, exactly as the hardware would.
//!
//! Per record (one packet's observation at one queue):
//!
//! 1. root queries reading the base table receive the record's row;
//! 2. `WHERE` filters run as match-action predicates;
//! 3. projections compute derived fields;
//! 4. `GROUPBY`s update their split key-value store — cache hit updates in
//!    place, misses initialize, bucket overflow evicts to the backing store
//!    with the fold-class-appropriate merge;
//! 5. each aggregation emits its refreshed `(key, state)` row downstream, so
//!    composed queries see the running output (the paper's streaming
//!    semantics; note downstream sees the *cache* value — the merged truth
//!    lives only in the backing store, §3.2).
//!
//! There is one executor: records arrive in batches (a single record is a
//! one-record batch), each chunk of a batch sweeps the flat `ExecPlan`
//! (`plan.rs`) node by node, filters and projections run as compiled
//! bytecode over a reusable value stack, group keys build into an inline
//! key, and every intermediate row lands in a per-node lane buffer reused
//! across chunks — the steady state allocates nothing per record.
//!
//! After [`Runtime::finish`] flushes the caches, [`Runtime::collect`] pulls
//! every query's final table from the backing stores, evaluates collect-time
//! joins, and reports per-key validity.

use crate::compiler::CompiledProgram;
use crate::durable::Durability;
use crate::foldops::{FoldOps, FoldState};
use crate::plan::{lane_mask, ExecPlan, NodeKind, RowSource, CHUNK, LANES};
use crate::result::{value_key, DeltaCursor, DeltaRow, ResultRow, ResultSet, ResultTable};
use perfq_kvstore::{
    BackingStore, CacheGeometry, InlineKey, SplitStore, StoreSnapshot, StoreStats, INLINE_KEY_WORDS,
};
use perfq_lang::bytecode::EvalStack;
use perfq_lang::ir::eval;
use perfq_lang::resolve::{GroupBySpec, GroupOutput};
use perfq_lang::{QueryInput, ResolvedKind, ResolvedProgram, Schema, Value, ValueType};
use perfq_packet::Nanos;
use perfq_switch::QueueRecord;

/// Captured rows of a selection over the packet table.
#[derive(Debug, Clone, Default)]
pub(crate) struct Capture {
    pub rows: Vec<Vec<Value>>,
    pub total: u64,
    pub limit: usize,
}

impl Capture {
    /// Count a match; copy the row only while below the capture limit.
    pub(crate) fn push(&mut self, row: &[Value]) {
        self.total += 1;
        if self.rows.len() < self.limit {
            self.rows.push(row.to_vec());
        }
    }
}

/// Lifecycle misuse detected at a batch entry point.
///
/// These conditions were previously `debug_assert!`s, which vanish in
/// release builds and let misuse silently corrupt state (records folded
/// into already-flushed caches split residencies into spurious epochs).
/// The checks are now always on: each public ingest entry verifies once
/// per call — once per batch, not per record — and the `try_*` twins
/// surface the condition as this typed error instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleError {
    /// Records were fed to a runtime after [`Runtime::finish`]: the caches
    /// are already flushed, so further folds would silently diverge from
    /// the drained results.
    ProcessAfterFinish,
}

impl std::fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LifecycleError::ProcessAfterFinish => {
                write!(
                    f,
                    "records processed after finish(): the measurement window is already drained"
                )
            }
        }
    }
}

impl std::error::Error for LifecycleError {}

/// The streaming executor.
#[derive(Debug)]
pub struct Runtime {
    compiled: CompiledProgram,
    params: Vec<Value>,
    stores: Vec<Option<SplitStore<InlineKey, FoldOps>>>,
    captures: Vec<Option<Capture>>,
    plan: ExecPlan,
    /// Shared bytecode evaluation stack.
    stack: EvalStack,
    /// Group-key scratch.
    key_buf: Vec<i64>,
    /// Vectorized path: one contiguous base-row matrix for a chunk of
    /// [`LANES`] records (lane `i` at `i * row_width ..`) — a single
    /// allocation so the node sweeps walk one dense block instead of
    /// chasing per-lane `Vec` headers.
    lane_rows: Vec<Value>,
    /// Vectorized path: observation times of the current chunk.
    lane_nows: Vec<Nanos>,
    /// Vectorized path: per-node flat output buffers, `arity` values per
    /// lane (`lane * arity ..`), written only at live lanes.
    lane_out: Vec<Vec<Value>>,
    /// Vectorized path: per-node survivor bitmask — bit `i` set when the
    /// node emitted a row for lane `i` of the current chunk.
    lane_live: Vec<u64>,
    /// Output-row width of each node (0 for non-emitting nodes).
    lane_arity: Vec<usize>,
    /// Vectorized path: flow-run coalescing (default on). Off = one probe
    /// per surviving row, the pre-coalescing engine — kept as a live
    /// baseline for the interleaved `query_runtime_bursty` ratio guards.
    coalesce: bool,
    records: u64,
    finished: bool,
    /// Incremental read path: previous-frame bookkeeping for
    /// [`Runtime::poll_delta`].
    poll_cursor: DeltaCursor,
    /// Record index of the last manifested checkpoint — names the capture
    /// files safe to drop once the next checkpoint's manifest lands.
    persisted_at: Option<u64>,
    /// Durable-tier configuration, when [`Runtime::enable_durability`] was
    /// called on this (stand-alone) runtime. Worker runtimes inside a
    /// sharded or multi-program deployment leave this `None` — the plane's
    /// roster holds the config and the manifest.
    durability: Option<Durability>,
}

impl Runtime {
    /// Instantiate the hardware state for a compiled program.
    #[must_use]
    pub fn new(compiled: CompiledProgram) -> Self {
        let params = compiled.program.param_values();
        let n = compiled.program.queries.len();
        let mut stores = Vec::with_capacity(n);
        let mut captures = Vec::with_capacity(n);
        for (idx, q) in compiled.program.queries.iter().enumerate() {
            match &compiled.stores[idx] {
                Some(plan) => stores.push(Some(SplitStore::new(
                    plan.geometry,
                    plan.policy,
                    plan.hash_seed,
                    plan.ops.clone(),
                ))),
                None => stores.push(None),
            }
            captures.push(
                matches!(
                    (&q.kind, &q.input),
                    (ResolvedKind::Project(_), QueryInput::Base)
                )
                .then(|| Capture {
                    limit: compiled.options.capture_limit,
                    ..Default::default()
                }),
            );
        }
        let mut plan = ExecPlan::build(&compiled.program);
        // Queries whose store is provided externally (multi-query store
        // dedup) leave the streaming pass entirely; see
        // `CompiledProgram::deduped_queries`.
        if !compiled.deduped_queries.is_empty() {
            for &idx in &compiled.deduped_queries {
                assert!(
                    !plan.nodes[idx].emits,
                    "only non-emitting aggregations may be deduplicated"
                );
                plan.nodes[idx].active = false;
            }
            plan.recompute_base_cols(&compiled.program);
        }
        let lane_arity = plan
            .nodes
            .iter()
            .map(|node| match &node.kind {
                NodeKind::Project { cols } => cols.len(),
                NodeKind::GroupBy { output, .. } => output.len(),
            })
            .collect();
        Runtime {
            compiled,
            params,
            stores,
            captures,
            plan,
            stack: EvalStack::new(),
            key_buf: Vec::new(),
            lane_rows: Vec::new(),
            lane_nows: Vec::new(),
            lane_out: vec![Vec::new(); n],
            lane_live: vec![0; n],
            lane_arity,
            coalesce: true,
            records: 0,
            finished: false,
            poll_cursor: DeltaCursor::default(),
            persisted_at: None,
            durability: None,
        }
    }

    /// Toggle flow-run coalescing in the vectorized sweep (default on).
    /// Both settings are byte-identical in results; off reproduces the
    /// one-probe-per-row engine for same-run benchmark comparisons.
    #[doc(hidden)]
    pub fn set_run_coalescing(&mut self, on: bool) {
        self.coalesce = on;
    }

    /// The compiled program.
    #[must_use]
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// Records processed so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Restore the record count a recovered checkpoint covers (the roster
    /// puts it on each program's first worker, like [`Runtime::recover`]).
    pub(crate) fn resume_records(&mut self, at: u64) {
        self.records = at;
    }

    /// Bitmap of base-schema columns the compiled plan reads — what the
    /// multi-query dataplane unions across programs to materialize each
    /// record's row once.
    #[must_use]
    pub(crate) fn base_cols(&self) -> u64 {
        self.plan.base_cols
    }

    /// Cross-query store dedup, collect side: query `dst`'s (never updated)
    /// store adopts the owning runtime's finished results, so collection
    /// reads exactly what a private store would have held. Only the backing
    /// table is copied — O(distinct keys), not O(cache geometry).
    pub(crate) fn adopt_store(&mut self, dst: usize, src: &Runtime, src_idx: usize) {
        // Always-on (not debug_assert): adopting from an unflushed owner
        // would silently drop its cache-resident state in release builds.
        assert!(self.finished && src.finished, "adopt after finish");
        match (self.stores[dst].as_mut(), src.stores[src_idx].as_ref()) {
            (Some(d), Some(s)) => d.adopt_results_from(s),
            _ => unreachable!("dedup only pairs aggregation stores"),
        }
    }

    /// [`Runtime::adopt_store`] within one runtime (two identical GROUPBYs
    /// in the *same* program; owners precede aliases, so `src_idx < dst`).
    pub(crate) fn adopt_store_within(&mut self, dst: usize, src_idx: usize) {
        assert!(self.finished, "adopt after finish");
        assert!(src_idx < dst, "owners precede aliases");
        let (left, right) = self.stores.split_at_mut(dst);
        match (right[0].as_mut(), left[src_idx].as_ref()) {
            (Some(d), Some(s)) => d.adopt_results_from(s),
            _ => unreachable!("dedup only pairs aggregation stores"),
        }
    }

    /// Dynamic lifecycle: bring a deduplicated aggregation (one
    /// [`Runtime::new`] left out of the streaming pass,
    /// `CompiledProgram::deduped_queries`) back into it. Used when an alias
    /// is promoted to owner (its owner was uninstalled) or when
    /// re-provisioning diverges an alias pair's geometries. The node's
    /// filter bytecode was compiled at plan-build time, before any
    /// deactivation, so reactivation restores exactly the original node.
    pub(crate) fn reactivate_query(&mut self, idx: usize) {
        self.compiled.deduped_queries.retain(|q| *q != idx);
        self.plan.nodes[idx].active = true;
        self.plan.recompute_base_cols(&self.compiled.program);
    }

    /// Dynamic lifecycle: live-migrate query `idx`'s store to a newly
    /// provisioned geometry ([`SplitStore::migrate_geometry`]) and keep the
    /// compiled store plan in sync, so physical-identity checks
    /// (`phys_eq`) observe the geometry the store actually runs at.
    pub(crate) fn migrate_store(&mut self, idx: usize, geometry: CacheGeometry) {
        if let Some(store) = self.stores[idx].as_mut() {
            store.migrate_geometry(geometry);
        }
        if let Some(plan) = self.compiled.stores[idx].as_mut() {
            plan.geometry = geometry;
        }
    }

    /// Dynamic lifecycle: snapshot query `idx`'s live store (cache-resident
    /// state, backing table and statistics).
    pub(crate) fn clone_store(&self, idx: usize) -> SplitStore<InlineKey, FoldOps> {
        self.stores[idx]
            .as_ref()
            .expect("lifecycle only snapshots aggregation stores")
            .clone()
    }

    /// Dynamic lifecycle: replace query `idx`'s store wholesale — the
    /// receiving half of an alias promotion or a sharing repair, where the
    /// owner's live state moves into the (previously dormant) alias slot.
    pub(crate) fn set_store(&mut self, idx: usize, store: SplitStore<InlineKey, FoldOps>) {
        assert!(
            self.stores[idx].is_some(),
            "lifecycle only replaces aggregation stores"
        );
        self.stores[idx] = Some(store);
    }

    /// Store statistics of a GROUPBY query (by query index).
    #[must_use]
    pub fn store_stats(&self, idx: usize) -> Option<StoreStats> {
        self.stores.get(idx)?.as_ref().map(SplitStore::stats)
    }

    /// True after [`Runtime::finish`]: the caches are flushed, results are
    /// collectable, and further ingest is a lifecycle error.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Reject ingest on a finished runtime — the always-on half of the
    /// lifecycle guard (the per-record `debug_assert`s in the shared
    /// internals only cover debug builds). Checked once per public entry
    /// call, so the release-mode cost is one branch per batch.
    #[inline]
    fn check_live(&self) -> Result<(), LifecycleError> {
        if self.finished {
            Err(LifecycleError::ProcessAfterFinish)
        } else {
            Ok(())
        }
    }

    /// Process one queue record: [`Runtime::process_batch`] over a
    /// one-record batch, i.e. one one-lane chunk.
    ///
    /// # Panics
    ///
    /// Panics (also in release builds) when called after
    /// [`Runtime::finish`]; use [`Runtime::try_process_record`] to handle
    /// the condition as a typed error instead.
    pub fn process_record(&mut self, rec: &QueueRecord) {
        self.process_batch(std::slice::from_ref(rec));
    }

    /// Fallible twin of [`Runtime::process_record`]: returns
    /// [`LifecycleError::ProcessAfterFinish`] instead of panicking when the
    /// runtime is already finished.
    pub fn try_process_record(&mut self, rec: &QueueRecord) -> Result<(), LifecycleError> {
        self.try_process_batch(std::slice::from_ref(rec))
    }

    /// Process a batch of queue records — the engine's one entry point.
    /// Results do not depend on how a stream is cut into batches (pinned
    /// byte-identical across chunkings and against
    /// [`crate::Oracle::predict`] by `tests/batch_equivalence.rs` and
    /// `tests/oracle_residency.rs`). Execution is node-at-a-time: the batch
    /// is cut into cache-sized chunks (at most one `u64` mask word of
    /// lanes), each chunk's rows materialize into reusable lane buffers
    /// (only the columns the compiled program reads), and each
    /// GroupBy/Project node sweeps only the set bits of its `u64` survivor
    /// bitmask — its own filter verdict fuses into the sweep, clearing the
    /// lane's bit in the same row visit. A node's store and fold kernel
    /// stay hot across the chunk instead of being evicted by the other
    /// nodes' work after every record.
    ///
    /// # Panics
    ///
    /// Panics (also in release builds) when called after
    /// [`Runtime::finish`]; use [`Runtime::try_process_batch`] to handle
    /// the condition as a typed error instead.
    pub fn process_batch(&mut self, recs: &[QueueRecord]) {
        self.try_process_batch(recs)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible twin of [`Runtime::process_batch`]: returns
    /// [`LifecycleError::ProcessAfterFinish`] instead of panicking when the
    /// runtime is already finished. The check runs once per batch, not per
    /// record.
    pub fn try_process_batch(&mut self, recs: &[QueueRecord]) -> Result<(), LifecycleError> {
        self.check_live()?;
        let mask = self.plan.base_cols;
        let width = QueueRecord::row_width();
        let mut rows = std::mem::take(&mut self.lane_rows);
        let mut nows = std::mem::take(&mut self.lane_nows);
        if rows.len() != LANES * width {
            rows.clear();
            rows.resize(LANES * width, Value::Int(0));
        }
        for chunk in recs.chunks(CHUNK) {
            nows.clear();
            for (rec, lane) in chunk.iter().zip(rows.chunks_exact_mut(width)) {
                rec.write_row_masked_into(lane, mask);
                nows.push(rec.observed_at());
            }
            self.process_lanes(&rows, width, chunk.len(), &nows);
        }
        self.lane_rows = rows;
        self.lane_nows = nows;
        Ok(())
    }

    /// The vectorized sweep: process one chunk of at most [`LANES`]
    /// materialized rows node-at-a-time under survivor bitmasks.
    ///
    /// `rows` is a flat lane matrix: lane `i` of the chunk's `n` records is
    /// `rows[i * width..]`, observed at `nows[i]`; bit `i` of a mask stands
    /// for that lane. Each node starts from its input mask — the full chunk
    /// for base-rooted nodes, the upstream node's live mask otherwise —
    /// and sweeps the set bits in ascending lane order; the node's filter
    /// evaluates *inside* the sweep, clearing the lane's bit and skipping
    /// the node body in the same row visit.
    /// A chunk of `n` lanes is byte-identical to `n` one-lane chunks
    /// because every store and capture buffer belongs to exactly one node
    /// and set bits are visited in record order: each store sees the same
    /// update sequence, each capture the same rows in the same order, and
    /// a downstream node's lane input is exactly the output its upstream
    /// computed for that record (per-lane buffers are only read at lanes
    /// the upstream's live mask covers). Warm chunks allocate nothing: lane
    /// buffers, masks and the shared stack are all reused across calls.
    pub(crate) fn process_lanes(&mut self, rows: &[Value], width: usize, n: usize, nows: &[Nanos]) {
        debug_assert!(!self.finished, "process after finish");
        debug_assert!(n <= LANES && n == nows.len() && rows.len() >= n * width);
        self.records += n as u64;
        let full = lane_mask(n);
        let Runtime {
            plan,
            params,
            stores,
            captures,
            stack,
            key_buf,
            lane_out,
            lane_live,
            lane_arity,
            coalesce,
            ..
        } = self;
        for (idx, node) in plan.nodes.iter().enumerate() {
            lane_live[idx] = 0;
            if !node.active {
                continue;
            }
            let mask = match node.source {
                RowSource::Base => full,
                RowSource::Node(p) => lane_live[p],
            };
            if mask == 0 {
                continue;
            }
            // Upstream slots have smaller indices: split so lane inputs and
            // this node's output buffer borrow disjoint ranges.
            let (upstream, rest) = lane_out.split_at_mut(idx);
            let input_of = |lane: usize| -> &[Value] {
                match node.source {
                    RowSource::Base => &rows[lane * width..(lane + 1) * width],
                    RowSource::Node(p) => {
                        let a = lane_arity[p];
                        &upstream[p][lane * a..(lane + 1) * a]
                    }
                }
            };
            // The filter fuses into the sweep below: the verdict and the
            // node's work happen in one visit while the lane row is hot.
            let fused = node.filter.as_ref();
            match &node.kind {
                NodeKind::Project { cols } => {
                    let a = lane_arity[idx];
                    let out = &mut rest[0];
                    if out.len() < LANES * a {
                        out.resize(LANES * a, Value::Int(0));
                    }
                    let mut live = mask;
                    let mut m = mask;
                    while m != 0 {
                        let lane = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let input = input_of(lane);
                        if let Some(f) = fused {
                            if !f.pass(stack, input, params) {
                                live &= !(1u64 << lane);
                                continue;
                            }
                        }
                        for (j, c) in cols.iter().enumerate() {
                            out[lane * a + j] = c
                                .eval(stack, &[], input, params)
                                .expect("type-checked projection cannot fail");
                        }
                        if let Some(cap) = captures[idx].as_mut() {
                            cap.push(&out[lane * a..(lane + 1) * a]);
                        }
                    }
                    lane_live[idx] = live;
                }
                NodeKind::GroupBy { key_cols, output } => {
                    let a = lane_arity[idx];
                    let store = stores[idx].as_mut().expect("groupby has a store");
                    let out = &mut rest[0];
                    if node.emits && out.len() < LANES * a {
                        out.resize(LANES * a, Value::Int(0));
                    }
                    // Flow-run coalescing: traces are bursty (packet trains
                    // per flow), so consecutive live lanes often carry the
                    // same group key. The first packet of a run pays the
                    // full probe and holds the slot ([`SlotHandle`]); the
                    // rest of the run folds straight into the held slot.
                    // Byte-identical to one probe per row — a run is never
                    // interrupted by another key, so every post-first
                    // packet is a guaranteed hit on an unmoved slot.
                    let mut run: Option<(InlineKey, perfq_kvstore::SlotHandle)> = None;
                    let mut live = mask;
                    let mut m = mask;
                    while m != 0 {
                        let lane = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let input = input_of(lane);
                        if let Some(f) = fused {
                            if !f.pass(stack, input, params) {
                                live &= !(1u64 << lane);
                                continue;
                            }
                        }
                        let key = build_group_key(key_cols, input, key_buf);
                        let state = match &run {
                            Some((rkey, handle)) if *coalesce && *rkey == key => {
                                store.observe_run_next(*handle, input, nows[lane])
                            }
                            _ => {
                                let (state, handle) =
                                    store.observe_run_first(key.clone(), input, nows[lane]);
                                run = Some((key, handle));
                                state
                            }
                        };
                        if node.emits {
                            for (j, o) in output.iter().enumerate() {
                                out[lane * a + j] = match o {
                                    GroupOutput::Key(i) => input[key_cols[*i]],
                                    GroupOutput::StateVar(v) => state.vars[*v],
                                };
                            }
                        }
                    }
                    if node.emits {
                        lane_live[idx] = live;
                    }
                }
            }
        }
    }

    /// Replay a packet stream through a network straight into this runtime:
    /// queue records stream from the output queues into the `ExecPlan` in
    /// batches of `batch`, with no intermediate record collection anywhere —
    /// the network's event heap, route and batch buffers are pooled, the
    /// queues release into a sink, and the runtime's row/stack buffers are
    /// reused, so a warmed replay performs zero heap allocations per packet
    /// (pinned by `tests/alloc_discipline.rs`).
    ///
    /// This is the canonical end-to-end entry the examples and the ratio
    /// guards use; it is exactly equivalent to collecting
    /// every record and calling [`Runtime::process_batch`] on the result.
    pub fn process_network(
        &mut self,
        net: &mut perfq_switch::Network,
        packets: impl Iterator<Item = perfq_packet::Packet>,
        batch: usize,
    ) {
        net.run_batched(packets, batch, |chunk| self.process_batch(chunk));
    }

    /// Periodically evict idle keys so the backing store stays fresh
    /// (§3.2's freshness note). `cutoff` evicts keys idle since before it.
    pub fn refresh_backing(&mut self, cutoff: Nanos) {
        for store in self.stores.iter_mut().flatten() {
            store.evict_idle_since(cutoff);
        }
    }

    /// Flush all caches to the backing stores (end of measurement window).
    /// Durable stores first fold their spill tier's on-disk truth back into
    /// RAM ([`SplitStore::materialize_spill`]: disk frames, then the newer
    /// RAM records, then the flushed cache on top — temporal merge order),
    /// so [`Runtime::collect`] and every drain that follows read through
    /// the tier. A tier that never spilled is retired here as well: from
    /// this point on the RAM table alone is the truth.
    pub fn finish(&mut self) {
        for store in self.stores.iter_mut().flatten() {
            store
                .materialize_spill()
                .expect("spill-tier read at finish");
            store.flush();
        }
        self.finished = true;
    }

    /// Merge another **finished** runtime of the same compiled program into
    /// this one — the drain step of the sharded dataplane, where each worker
    /// core's private runtime collapses into one for collection.
    ///
    /// Per-query stores merge through the fold merge machinery
    /// (`SplitStore::absorb_store`), capture buffers concatenate (the shared
    /// capture limit still bounds retained rows; totals always sum), and
    /// record counts add. Exact whenever the two runtimes processed
    /// key-disjoint partitions of one stream for every non-order-free store
    /// — the invariant `ShardedRuntime`'s key-hash partitioning provides.
    /// Bounded captures are the one stream-order exception: when a
    /// selection matches more rows than the capture limit, the retained
    /// rows are `self`'s prefix then `other`'s (not the global stream's
    /// first `limit`) — totals and row counts still match the
    /// single-stream engine exactly (see the capture caveat in
    /// [`crate::sharded`]).
    ///
    /// # Panics
    ///
    /// Panics if either runtime has not been [`Runtime::finish`]ed, or if
    /// the programs' shapes differ.
    pub fn absorb_finished(&mut self, other: Runtime) {
        assert!(
            self.finished && other.finished,
            "absorb_finished requires both runtimes finished"
        );
        assert_eq!(
            self.compiled.program.queries.len(),
            other.compiled.program.queries.len(),
            "runtimes must run the same program"
        );
        self.records += other.records;
        for (mine, theirs) in self.stores.iter_mut().zip(other.stores) {
            match (mine.as_mut(), theirs) {
                (Some(a), Some(b)) => a.absorb_store(b),
                (None, None) => {}
                _ => unreachable!("same program implies same store layout"),
            }
        }
        for (mine, theirs) in self.captures.iter_mut().zip(other.captures) {
            if let (Some(a), Some(b)) = (mine.as_mut(), theirs) {
                a.total += b.total;
                let room = a.limit.saturating_sub(a.rows.len());
                a.rows.extend(b.rows.into_iter().take(room));
            }
        }
    }

    /// Pull every query's final table. Call after [`Runtime::finish`].
    #[must_use]
    pub fn collect(&self) -> ResultSet {
        assert!(self.finished, "collect() requires finish()");
        collect_results(
            &self.compiled.program,
            |idx| {
                let store = self.stores[idx].as_ref().expect("groupby store");
                backing_rows(store.backing())
            },
            &self.captures,
            &self.params,
        )
    }

    /// Poll the current results **without stopping the world** — the
    /// incremental read path. Returns exactly what [`Runtime::finish`] +
    /// [`Runtime::collect`] would return on a clone of this runtime, but
    /// the live runtime is untouched: caches stay resident, ingest
    /// continues afterwards, and the eventual drain is byte-identical to a
    /// never-polled replay (pinned by `tests/poll_equivalence.rs`).
    ///
    /// This is the one-program, one-worker case of the routine every plane
    /// polls through (`poll_collect`): each store's consistent frame is
    /// taken fresh ([`SplitStore::snapshot`]), and above the frames only the
    /// result rows allocate — the one `values` vector each [`ResultRow`]
    /// owns, built front to back over the frame, plus per table one vector
    /// of compact key records that is sorted in the rows' stead and one
    /// `u32` permutation — exactly as `collect` does.
    #[must_use]
    pub fn poll_results(&self) -> ResultSet {
        let me = std::slice::from_ref(self);
        let stores: Vec<_> = (self.stores.iter().enumerate())
            .map(|(q, store)| store.as_ref().map(|_| (me, q)))
            .collect();
        poll_collect(me, &stores)
    }

    /// Poll and stream only the rows that are new or changed since the
    /// previous `poll_delta` — per-epoch delta emission through the
    /// dataplane's `FnMut` sink idiom. Returns the new epoch number (1 on
    /// the first poll, whose delta is the whole frame). The cumulative
    /// frame remains available via [`Runtime::poll_results`];
    /// multi-program planes compose the same machinery from
    /// [`crate::DeltaCursor`].
    pub fn poll_delta(&mut self, sink: impl FnMut(DeltaRow<'_>)) -> u64 {
        let frame = self.poll_results();
        self.poll_cursor.advance(frame, sink)
    }

    /// Attach a durable spill tier to every aggregation store (off by
    /// default; see [`crate::durable`]). Evictions past the configured
    /// high-water mark append to per-store WALs on the config's backend;
    /// [`Runtime::persist`] checkpoints, and [`Runtime::recover`] resumes
    /// a crashed deployment.
    pub fn enable_durability(&mut self, d: Durability) -> std::io::Result<()> {
        self.enable_durability_prefixed(&d, "")?;
        self.durability = Some(d);
        Ok(())
    }

    /// Attach spill tiers with an extra deployment-level name component
    /// (`p<id>_` per installed program, `p<id>_s<i>_` per shard of one) —
    /// the plane's roster keeps the [`Durability`] config and the manifest.
    pub(crate) fn enable_durability_prefixed(
        &mut self,
        d: &Durability,
        sub: &str,
    ) -> std::io::Result<()> {
        for (idx, store) in self.stores.iter_mut().enumerate() {
            if let Some(s) = store {
                s.enable_spill(
                    d.backend().clone(),
                    &format!("{}{}q{idx}_", d.prefix(), sub),
                    d.spill(),
                )?;
            }
        }
        Ok(())
    }

    /// Checkpoint every durable store at `record_index` (flush, snapshot
    /// the RAM table, write a checkpoint frame, group-commit), then persist the
    /// bounded capture buffers — base-table selections carry stream-order
    /// state the stores don't, so a recovered deployment's captures must
    /// cover the full prefix, not just the re-ingested suffix. The caller
    /// owns the manifest write that makes the checkpoint recoverable.
    pub(crate) fn persist_stores(
        &mut self,
        record_index: u64,
        d: &Durability,
        sub: &str,
    ) -> std::io::Result<()> {
        for store in self.stores.iter_mut().flatten() {
            if store.spill().is_some() {
                store.persist(record_index)?;
            }
        }
        for (idx, cap) in self.captures.iter().enumerate() {
            if let Some(cap) = cap {
                let bytes = crate::durable::encode_capture(&cap.rows, cap.total);
                // The record index is part of the name: the previous
                // checkpoint's capture file stays intact until the manifest
                // advances past it, so a crash mid-persist recovers the old
                // captures, not a torn mix of old stores and new rows.
                let name = format!("{}{}cap{idx}_{record_index}", d.prefix(), sub);
                let mut be = d.backend().lock().expect("backend mutex");
                be.write_atomic(&name, &bytes)?;
                be.sync(&name)?;
            }
        }
        Ok(())
    }

    /// Compact every durable store (its WAL folds into its segment once it
    /// has outgrown it) and drop the previous checkpoint's capture files
    /// (`stale`, when it differs from the index just manifested). Call only
    /// after a manifested checkpoint.
    pub(crate) fn compact_stores(
        &mut self,
        d: &Durability,
        sub: &str,
        stale: Option<u64>,
    ) -> std::io::Result<()> {
        for store in self.stores.iter_mut().flatten() {
            store.compact_spill()?;
        }
        if let Some(old) = stale {
            for (idx, cap) in self.captures.iter().enumerate() {
                if cap.is_some() {
                    let name = format!("{}{}cap{idx}_{old}", d.prefix(), sub);
                    d.backend().lock().expect("backend mutex").remove(&name)?;
                }
            }
        }
        Ok(())
    }

    /// Repair and re-attach every store's spill tier after a crash.
    pub(crate) fn recover_stores(
        &mut self,
        d: &Durability,
        sub: &str,
        manifest: Option<u64>,
    ) -> std::io::Result<()> {
        for (idx, store) in self.stores.iter_mut().enumerate() {
            if let Some(s) = store {
                s.recover_spill(
                    d.backend().clone(),
                    &format!("{}{}q{idx}_", d.prefix(), sub),
                    d.spill(),
                    manifest,
                )?;
            }
        }
        if let Some(at) = manifest {
            for (idx, cap) in self.captures.iter_mut().enumerate() {
                let Some(cap) = cap else { continue };
                let name = format!("{}{}cap{idx}_{at}", d.prefix(), sub);
                let bytes = {
                    let mut be = d.backend().lock().expect("backend mutex");
                    be.read(&name)?
                };
                if let Some((rows, total)) =
                    bytes.as_deref().and_then(crate::durable::decode_capture)
                {
                    cap.rows = rows;
                    cap.total = total;
                }
            }
        }
        Ok(())
    }

    /// Durably checkpoint the deployment at the current record index:
    /// every store checkpoints ([`SplitStore::persist`]), then the single
    /// deployment manifest advances atomically, then every WAL that has
    /// outgrown its segment folds into it ([`SplitStore::compact_spill`];
    /// the others keep their frames). On success a crash at *any* later
    /// point recovers to exactly this state ([`Runtime::recover`]).
    ///
    /// # Panics
    ///
    /// Panics unless [`Runtime::enable_durability`] was called.
    pub fn persist(&mut self) -> std::io::Result<()> {
        let d = self
            .durability
            .clone()
            .expect("persist requires enable_durability");
        let (at, mut persisted_at) = (self.records, self.persisted_at);
        let outcome = crate::durable::persist(
            &d,
            at,
            &mut persisted_at,
            &mut [(String::new(), &mut *self)],
        );
        self.persisted_at = persisted_at;
        outcome
    }

    /// Recover a crashed deployment from its durable tier: read the
    /// manifest, repair every store's files against it
    /// ([`SplitStore::recover_spill`]), and return the runtime together
    /// with the **resume index** — the record count at the recovered
    /// checkpoint. The caller re-ingests the stream from that record on;
    /// results are then byte-identical to a never-crashed deployment that
    /// persisted at the same indices (`tests/durability_crash.rs`).
    pub fn recover(compiled: CompiledProgram, d: Durability) -> std::io::Result<(Runtime, u64)> {
        let mut rt = Runtime::new(compiled);
        let resume = crate::durable::recover(&d, &mut [(String::new(), &mut rt)])?;
        let at = resume.unwrap_or(0);
        rt.resume_records(at);
        rt.persisted_at = resume;
        rt.durability = Some(d);
        Ok((rt, at))
    }
}

/// One aggregation's `(key words, state variables, valid)` rows in the
/// order its table stores them — the source [`emit_group_rows`] walks.
pub(crate) fn backing_rows(
    backing: &BackingStore<InlineKey, FoldState>,
) -> impl Iterator<Item = (&[i64], &[Value], bool)> + Clone {
    backing
        .iter()
        .map(|(k, entry)| (k.as_slice(), &*entry.latest().vars, entry.is_valid()))
}

/// What the sort moves in a row's stead: the key's leading `W` words — all
/// of them for every key up to [`INLINE_KEY_WORDS`] wide — and the index of
/// the row built from it.
struct SortRecord<const W: usize> {
    key: [i64; W],
    row: u32,
}

/// One aggregation's result rows, ascending by signed key words — the single
/// construction [`Runtime::collect`], every poll path and the oracle share,
/// so drained, polled and reference views of a table can never diverge.
///
/// `source` (a backing arena, a snapshot frame, the oracle's map) is only
/// ever walked front to back: one pass builds every row where it finds it, a
/// second takes one [`SortRecord`] per key; the records are sorted without
/// touching the source again (only a key wider than `W` words falls back to
/// its borrowed tail on a tie), and the resulting permutation is applied to
/// the rows in place — 32-byte headers move, the `values` blocks stay where
/// the first pass put them. Keys are unique and one table's keys are equally
/// wide, so the unstable sort is deterministic and equals a sort by the whole
/// key slice; it is also what makes result order independent of the
/// source's order.
///
/// `W` is the table's key width, capped at [`INLINE_KEY_WORDS`]: a record
/// carries no padding, so a two-word key sorts as 24 bytes, not 48. The rows
/// — all that outlives the call — are allocated before the sort's scratch,
/// which therefore comes off the top of the heap when it is freed instead of
/// leaving a hole under them (one pass that pushed rows and records side by
/// side cost `multi_polled` 12 MB of peak RSS for 1 ms of `collect`).
fn emit_group_rows<'a, const W: usize>(
    g: &GroupBySpec,
    schema: &Schema,
    source: impl Iterator<Item = (&'a [i64], &'a [Value], bool)> + Clone,
) -> Vec<ResultRow> {
    // Each output column with its type, resolved once per table, not per cell.
    let cols: Vec<(GroupOutput, ValueType)> = (g.output.iter().enumerate())
        .map(|(pos, o)| (*o, schema.type_of(pos)))
        .collect();
    let mut rows: Vec<ResultRow> = (source.clone())
        .map(|(key, vars, valid)| ResultRow {
            values: (cols.iter())
                .map(|col| match *col {
                    (GroupOutput::Key(i), ty) => key_to_value(key[i], ty),
                    (GroupOutput::StateVar(j), _) => vars[j],
                })
                .collect(),
            valid,
        })
        .collect();
    let n = u32::try_from(rows.len()).expect("a result table holds < 2^32 rows");
    let mut records = Vec::with_capacity(rows.len());
    // Tail words of keys wider than a record, by row (empty otherwise).
    let mut tails: Vec<&[i64]> = Vec::new();
    for ((key, _, _), row) in source.zip(0..n) {
        let (head, tail) = key.split_at(W);
        let key = head.try_into().expect("split at W");
        records.push(SortRecord::<W> { key, row });
        if !tail.is_empty() {
            tails.push(tail);
        }
    }
    records.sort_unstable_by(|a, b| {
        (a.key.cmp(&b.key)).then_with(|| tails.get(a.row as usize).cmp(&tails.get(b.row as usize)))
    });
    // order[dst] = src; the records are gone before the rows move.
    let mut order: Vec<u32> = records.iter().map(|r| r.row).collect();
    drop(records);
    for start in 0..order.len() {
        // Walk the cycle through `start`, carrying its row along; a placed
        // slot is marked by pointing it at itself.
        let mut dst = start;
        loop {
            let src = std::mem::replace(&mut order[dst], dst as u32) as usize;
            if src == start {
                break;
            }
            rows.swap(dst, src);
            dst = src;
        }
    }
    rows
}

/// Poll a program's current results across one or more runtimes — the one
/// engine behind [`Runtime::poll_results`],
/// [`crate::ShardedRuntime::poll_results`], [`crate::MultiRuntime::poll`],
/// [`crate::MultiSharded::poll`] and the final read of an uninstall.
///
/// `capture_shards` lists the program's worker runtimes in shard order (a
/// single element for unsharded planes): their capture buffers combine
/// exactly as [`Runtime::absorb_finished`] combines them
/// (prefix-then-suffix under the shared limit; totals always sum), and the
/// first element donates the program, parameters and table schemas.
/// `stores[q]` names, per query, the worker group and store index whose
/// per-worker frames merge into that query's result — the program's own
/// workers, or a redirected owner's for deduped alias queries; `None` for
/// storeless queries. Sources are only read: every live runtime keeps its
/// caches resident and keeps ingesting after the poll.
pub(crate) fn poll_collect(
    capture_shards: &[Runtime],
    stores: &[Option<(&[Runtime], usize)>],
) -> ResultSet {
    let lead = &capture_shards[0];
    // The frames outlive the rows borrowed from them.
    let frames: Vec<Option<StoreSnapshot<InlineKey, FoldState>>> = stores
        .iter()
        .map(|src| {
            let (workers, q) = (*src)?;
            let mut sources = workers.iter().map(|rt| {
                rt.stores[q]
                    .as_ref()
                    .expect("poll sources are aggregation stores")
            });
            let mut snap = sources.next().expect("≥1 source per store").snapshot();
            for store in sources {
                store.snapshot_merge_into(&mut snap);
            }
            Some(snap)
        })
        .collect();
    // One shard lends its capture buffers as they are; only ≥ 2 shards
    // need a merged copy.
    let merged: Vec<Option<Capture>>;
    let captures = if capture_shards.len() == 1 {
        &lead.captures
    } else {
        merged = (0..lead.captures.len())
            .map(|idx| {
                lead.captures[idx].as_ref().map(|first| {
                    let mut merged = first.clone();
                    for w in &capture_shards[1..] {
                        let b = w.captures[idx]
                            .as_ref()
                            .expect("shard runtimes share one program");
                        merged.total += b.total;
                        let room = merged.limit.saturating_sub(merged.rows.len());
                        merged.rows.extend(b.rows.iter().take(room).cloned());
                    }
                    merged
                })
            })
            .collect();
        &merged
    };
    collect_results(
        &lead.compiled.program,
        |idx| {
            let frame = frames[idx].as_ref().expect("groupby frame");
            backing_rows(frame.backing())
        },
        captures,
        &lead.params,
    )
}

/// Build a `GROUPBY` key from an input row. Short keys are written
/// straight into the canonical inline form — the zero-padded word array
/// is the key, so nothing is copied; wider keys go through the reusable
/// `spill` scratch.
fn build_group_key(key_cols: &[usize], input: &[Value], spill: &mut Vec<i64>) -> InlineKey {
    if key_cols.len() <= INLINE_KEY_WORDS {
        let mut words = [0i64; INLINE_KEY_WORDS];
        for (slot, c) in words.iter_mut().zip(key_cols) {
            *slot = value_key(&input[*c]);
        }
        InlineKey::Inline {
            len: key_cols.len() as u8,
            words,
        }
    } else {
        spill.clear();
        for c in key_cols {
            spill.push(value_key(&input[*c]));
        }
        InlineKey::from_slice(spill)
    }
}

/// Reconstruct a key word as a typed value (floats were stored as bits).
fn key_to_value(word: i64, ty: ValueType) -> Value {
    match ty {
        ValueType::Int => Value::Int(word),
        ValueType::Float => Value::Float(f64::from_bits(word as u64)),
        ValueType::Bool => Value::Bool(word != 0),
    }
}

/// Build the final tables shared by the runtime and the oracle.
///
/// `group_source(idx)` lends aggregation `idx`'s `(key words, state
/// variables, valid)` rows in whatever order its table holds them;
/// [`emit_group_rows`] owns the order of what comes out.
pub(crate) fn collect_results<'a, I>(
    program: &ResolvedProgram,
    group_source: impl Fn(usize) -> I,
    captures: &[Option<Capture>],
    params: &[Value],
) -> ResultSet
where
    I: Iterator<Item = (&'a [i64], &'a [Value], bool)> + Clone,
{
    let mut tables: Vec<ResultTable> = Vec::with_capacity(program.queries.len());
    for (idx, q) in program.queries.iter().enumerate() {
        let table = match &q.kind {
            ResolvedKind::GroupBy(g) => {
                const _: () = assert!(INLINE_KEY_WORDS == 5, "one arm per inline key width");
                let source = group_source(idx);
                let rows = match g.key_cols.len() {
                    0 => emit_group_rows::<0>(g, &q.schema, source),
                    1 => emit_group_rows::<1>(g, &q.schema, source),
                    2 => emit_group_rows::<2>(g, &q.schema, source),
                    3 => emit_group_rows::<3>(g, &q.schema, source),
                    4 => emit_group_rows::<4>(g, &q.schema, source),
                    _ => emit_group_rows::<INLINE_KEY_WORDS>(g, &q.schema, source),
                };
                ResultTable {
                    name: q.name.clone(),
                    schema: q.schema.clone(),
                    total_matched: rows.len() as u64,
                    rows,
                }
            }
            ResolvedKind::Project(cols) => match &q.input {
                QueryInput::Base => {
                    let cap = captures[idx].as_ref().expect("base projections capture");
                    ResultTable {
                        name: q.name.clone(),
                        schema: q.schema.clone(),
                        rows: cap
                            .rows
                            .iter()
                            .map(|values| ResultRow {
                                values: values.clone(),
                                valid: true,
                            })
                            .collect(),
                        total_matched: cap.total,
                    }
                }
                QueryInput::Table(src) => {
                    let input = &tables[*src];
                    let rows = project_rows(
                        input.rows.iter().map(|r| (r.values.as_slice(), r.valid)),
                        q.pre_filter.as_ref(),
                        cols,
                        params,
                    );
                    let total = rows.len() as u64;
                    ResultTable {
                        name: q.name.clone(),
                        schema: q.schema.clone(),
                        rows,
                        total_matched: total,
                    }
                }
                QueryInput::Join { left, right, on } => {
                    let joined = join_rows(&tables[*left], &tables[*right], on);
                    let rows = project_rows(
                        joined.iter().map(|(v, ok)| (v.as_slice(), *ok)),
                        q.pre_filter.as_ref(),
                        cols,
                        params,
                    );
                    let total = rows.len() as u64;
                    ResultTable {
                        name: q.name.clone(),
                        schema: q.schema.clone(),
                        rows,
                        total_matched: total,
                    }
                }
            },
        };
        tables.push(table);
    }
    ResultSet { tables }
}

fn project_rows<'a>(
    input: impl Iterator<Item = (&'a [Value], bool)>,
    filter: Option<&perfq_lang::RExpr>,
    cols: &[perfq_lang::ProjCol],
    params: &[Value],
) -> Vec<ResultRow> {
    let mut out = Vec::new();
    for (row, valid) in input {
        if let Some(f) = filter {
            let pass = eval(f, &[], row, params)
                .expect("type-checked filter cannot fail")
                .truthy();
            if !pass {
                continue;
            }
        }
        out.push(ResultRow {
            values: cols
                .iter()
                .map(|c| eval(&c.expr, &[], row, params).expect("type-checked projection"))
                .collect(),
            valid,
        });
    }
    out
}

/// Inner-join two keyed tables on the named key columns, producing rows laid
/// out as `resolve::joined_schema` declares: key values, then the left
/// table's non-key columns, then the right's.
fn join_rows(left: &ResultTable, right: &ResultTable, on: &[String]) -> Vec<(Vec<Value>, bool)> {
    let lkeys: Vec<usize> = on
        .iter()
        .map(|n| left.schema.index_of(n).expect("join key in left schema"))
        .collect();
    let rkeys: Vec<usize> = on
        .iter()
        .map(|n| right.schema.index_of(n).expect("join key in right schema"))
        .collect();
    let rmap = right.key_map(&rkeys);
    // Precompute the non-key column order once instead of scanning the key
    // list per cell per row.
    let l_nonkey: Vec<usize> = (0..left.schema.len())
        .filter(|i| !lkeys.contains(i))
        .collect();
    let r_nonkey: Vec<usize> = (0..right.schema.len())
        .filter(|i| !rkeys.contains(i))
        .collect();
    let mut out = Vec::new();
    for lrow in &left.rows {
        let key: Vec<i64> = lkeys.iter().map(|c| value_key(&lrow.values[*c])).collect();
        let Some(rrow) = rmap.get(&key) else {
            continue;
        };
        let mut values: Vec<Value> =
            Vec::with_capacity(lkeys.len() + l_nonkey.len() + r_nonkey.len());
        values.extend(lkeys.iter().map(|c| lrow.values[*c]));
        values.extend(l_nonkey.iter().map(|c| lrow.values[*c]));
        values.extend(r_nonkey.iter().map(|c| rrow.values[*c]));
        out.push((values, lrow.valid && rrow.valid));
    }
    out
}

/// What [`emit_group_rows`] replaced, kept as the tests' reference: gather
/// `(key, vars, valid)` tuples, sort them by the whole key slice, build each
/// row cell by cell from the schema.
#[cfg(test)]
pub(crate) fn reference_group_rows<'a>(
    g: &GroupBySpec,
    schema: &Schema,
    source: impl Iterator<Item = (&'a [i64], &'a [Value], bool)>,
) -> Vec<ResultRow> {
    let mut tuples: Vec<(&[i64], &[Value], bool)> = source.collect();
    tuples.sort_unstable_by_key(|row| row.0);
    tuples
        .iter()
        .map(|(key, vars, valid)| ResultRow {
            values: (g.output.iter().enumerate())
                .map(|(pos, o)| match o {
                    GroupOutput::Key(i) => key_to_value(key[*i], schema.type_of(pos)),
                    GroupOutput::StateVar(j) => vars[*j],
                })
                .collect(),
            valid: *valid,
        })
        .collect()
}

/// The row-order contract of the read path, property-tested against
/// [`reference_group_rows`] over every source shape the routine serves.
#[cfg(test)]
mod order_contract {
    use super::*;
    use crate::compiler::{compile_program, CompileOptions, CompiledProgram};
    use perfq_kvstore::{EvictionPolicy, MergeMode};
    use perfq_lang::{compile as lang_compile, fig2};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A one-aggregation program re-keyed to `width` synthetic key columns
    /// (Int and Float alternating, so half the words are float bits) with
    /// the output plan shuffled: a state variable first, the keys backwards.
    fn rekeyed(width: usize) -> CompiledProgram {
        let src = "SELECT COUNT, SUM(pkt_len) GROUPBY srcip";
        let prog = lang_compile(src, &fig2::default_params()).unwrap();
        let mut compiled = compile_program(prog, CompileOptions::default()).unwrap();
        let q = &mut compiled.program.queries[0];
        let ResolvedKind::GroupBy(g) = &mut q.kind else {
            unreachable!("an aggregation")
        };
        g.key_cols = (0..width).collect();
        g.key_names = (0..width).map(|i| format!("k{i}")).collect();
        g.output = std::iter::once(GroupOutput::StateVar(1))
            .chain((0..width).rev().map(GroupOutput::Key))
            .chain([GroupOutput::StateVar(0)])
            .collect();
        let key_ty = |i: usize| [ValueType::Int, ValueType::Float][i % 2];
        q.schema = Schema::new(
            std::iter::once(("sum".to_string(), ValueType::Int))
                .chain((0..width).rev().map(|i| (format!("k{i}"), key_ty(i))))
                .chain([("count".to_string(), ValueType::Int)])
                .collect(),
        );
        compiled
    }

    /// Rows as comparable words (a float-typed key column may hold NaN bits).
    fn words(rows: &[ResultRow]) -> Vec<(Vec<i64>, bool)> {
        (rows.iter())
            .map(|r| (r.values.iter().map(value_key).collect(), r.valid))
            .collect()
    }

    /// Emit `source` through the real dispatch and compare with the reference.
    fn check<'a, I>(
        compiled: &CompiledProgram,
        source: impl Fn() -> I,
    ) -> Result<usize, TestCaseError>
    where
        I: Iterator<Item = (&'a [i64], &'a [Value], bool)> + Clone,
    {
        let q = &compiled.program.queries[0];
        let ResolvedKind::GroupBy(g) = &q.kind else {
            unreachable!("an aggregation")
        };
        let got = collect_results(&compiled.program, |_| source(), &[None], &[]);
        let want = reference_group_rows(g, &q.schema, source());
        prop_assert_eq!(got.tables[0].total_matched, want.len() as u64);
        prop_assert_eq!(words(&got.tables[0].rows), words(&want));
        Ok(want.len())
    }

    /// One key word: mostly 0/1 (heavy ties on the leading words, so wide
    /// keys reach their tail tie-break), else a negative, any word at all,
    /// or the bits of a small signed float.
    fn key_word() -> impl Strategy<Value = i64> {
        prop_oneof![
            0i64..=1,
            0i64..=1,
            0i64..=1,
            -3i64..=-1,
            i64::MIN..=i64::MAX,
            (-8i64..=8).prop_map(|x| (x as f64 * 0.25).to_bits() as i64),
        ]
    }

    proptest! {
        #[test]
        fn emitted_tables_equal_the_sorted_reference(
            width in 0usize..=7,
            keys in prop::collection::vec((prop::collection::vec(key_word(), 7), 0u8..6), 0..250),
        ) {
            let compiled = rekeyed(width);
            let plan = compiled.stores[0].as_ref().expect("aggregation store");
            let row = crate::runtime::tests::record(1, 1, 0, Some(50), 0).to_row();

            // The oracle's shape: a hash map walked in its own order.
            let map: HashMap<Vec<i64>, Vec<Value>> = (keys.iter().zip(0i64..))
                .map(|((k, _), i)| (k[..width].to_vec(), vec![Value::Int(i), Value::Int(-i)]))
                .collect();
            let rows = check(&compiled, || map.iter().map(|(k, v)| (k.as_slice(), v.as_slice(), true)))?;
            prop_assert_eq!(rows, map.len());

            // A backing arena scrambled by removals, multi-epoch (invalid)
            // records included.
            let mut arena: BackingStore<InlineKey, FoldState> = BackingStore::new(MergeMode::Epochs);
            for ((k, salt), i) in keys.iter().zip(0i64..) {
                let state = FoldState {
                    vars: crate::foldops::StateVec::from_slice(&[Value::Int(i), Value::Float(i as f64 / 3.0)]),
                    packets: 0,
                    aux: None,
                };
                let at = Nanos(i as u64);
                arena.absorb(InlineKey::from_slice(&k[..width]), state, at, at, |_, _| {});
                if *salt == 0 {
                    arena.remove(&InlineKey::from_slice(&keys[i as usize / 2].0[..width]));
                }
            }
            check(&compiled, || backing_rows(&arena))?;

            // A cold snapshot frame over a live store that evicts, with
            // standing records removed under it.
            let mut store = SplitStore::new(
                CacheGeometry::set_associative(8, 2),
                EvictionPolicy::Lru,
                plan.hash_seed,
                plan.ops.clone(),
            );
            for ((k, salt), i) in keys.iter().zip(0u64..) {
                store.observe(InlineKey::from_slice(&k[..width]), &row[..], Nanos(i));
                if *salt == 1 {
                    store.remove_key(&InlineKey::from_slice(&keys[i as usize / 2].0[..width]));
                }
            }
            let frame = store.snapshot();
            let rows = check(&compiled, || backing_rows(frame.backing()))?;
            prop_assert_eq!(rows, frame.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile_program, CompileOptions};
    use perfq_lang::{compile as lang_compile, fig2};
    use perfq_packet::PacketBuilder;
    use std::net::Ipv4Addr;

    fn runtime(src: &str) -> Runtime {
        let prog = lang_compile(src, &fig2::default_params()).unwrap();
        Runtime::new(compile_program(prog, CompileOptions::default()).unwrap())
    }

    pub(super) fn record(
        src_last: u8,
        seq: u32,
        tin: u64,
        tout: Option<u64>,
        qsize: u32,
    ) -> QueueRecord {
        QueueRecord {
            packet: PacketBuilder::tcp()
                .src(Ipv4Addr::new(10, 0, 0, src_last), 1000)
                .dst(Ipv4Addr::new(172, 16, 0, 1), 80)
                .seq(seq)
                .payload_len(100)
                .uniq(u64::from(seq))
                .build(),
            qid: 1,
            tin: Nanos(tin),
            tout: tout.map(Nanos).unwrap_or(Nanos::INFINITY),
            qsize,
            qout: 0,
            path: 0,
        }
    }

    #[test]
    fn processing_after_finish_is_a_typed_error_in_every_build() {
        // Release builds used to rely on debug_assert! here, so a drained
        // runtime silently mis-folded records. The check is now an
        // always-on typed error, paid once per batch entry.
        let mut rt = runtime("SELECT COUNT GROUPBY srcip");
        let rec = record(1, 1, 0, Some(50), 0);
        rt.try_process_record(&rec).expect("live runtime accepts");
        rt.finish();
        assert!(rt.is_finished());
        let err = rt.try_process_record(&rec).expect_err("finished rejects");
        assert_eq!(err, LifecycleError::ProcessAfterFinish);
        let err = rt
            .try_process_batch(std::slice::from_ref(&rec))
            .expect_err("finished rejects batches");
        assert!(format!("{err}").contains("after finish()"));
        // The record never folded: the count is still 1.
        let rs = rt.collect();
        let t = &rs.tables[0];
        assert_eq!(t.rows.len(), 1);
        assert_eq!(
            t.rows[0].values[t.schema.index_of("COUNT").unwrap()].as_i64(),
            1
        );
    }

    #[test]
    fn count_groupby_counts_per_key() {
        let mut rt = runtime("SELECT COUNT GROUPBY srcip");
        for i in 0..10u32 {
            rt.process_record(&record(
                (i % 2) as u8,
                i,
                100 * u64::from(i),
                Some(100 * u64::from(i) + 50),
                0,
            ));
        }
        rt.finish();
        let rs = rt.collect();
        let t = &rs.tables[0];
        assert_eq!(t.rows.len(), 2);
        let counts: Vec<i64> = t
            .rows
            .iter()
            .map(|r| r.values[t.schema.index_of("COUNT").unwrap()].as_i64())
            .collect();
        assert_eq!(counts.iter().sum::<i64>(), 10);
    }

    #[test]
    fn where_filters_records() {
        let mut rt = runtime("SELECT srcip FROM T WHERE tout - tin > 1ms");
        rt.process_record(&record(1, 1, 0, Some(100), 0)); // 100 ns: filtered
        rt.process_record(&record(2, 2, 0, Some(2_000_000), 0)); // 2 ms: kept
        rt.finish();
        let rs = rt.collect();
        assert_eq!(rs.tables[0].rows.len(), 1);
        assert_eq!(rs.tables[0].total_matched, 1);
    }

    #[test]
    fn drop_filter_matches_infinite_tout() {
        let mut rt = runtime("SELECT COUNT GROUPBY srcip WHERE tout == infinity");
        rt.process_record(&record(1, 1, 0, Some(100), 0));
        rt.process_record(&record(1, 2, 10, None, 3)); // drop
        rt.process_record(&record(1, 3, 20, None, 3)); // drop
        rt.finish();
        let rs = rt.collect();
        let t = &rs.tables[0];
        assert_eq!(t.rows.len(), 1);
        assert_eq!(
            t.rows[0].values[t.schema.index_of("COUNT").unwrap()].as_i64(),
            2
        );
    }

    #[test]
    fn loss_rate_join_end_to_end() {
        let src = "R1 = SELECT COUNT GROUPBY 5tuple\nR2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity\nR3 = SELECT R2.COUNT/R1.COUNT FROM R1 JOIN R2 ON 5tuple\n";
        let mut rt = runtime(src);
        // Flow A: 4 packets, 1 drop. Flow B: 2 packets, 0 drops.
        for (i, (src_ip, dropped)) in [
            (1u8, false),
            (1, true),
            (1, false),
            (1, false),
            (2, false),
            (2, false),
        ]
        .iter()
        .enumerate()
        {
            let t = 100 * i as u64;
            rt.process_record(&record(
                *src_ip,
                i as u32,
                t,
                (!dropped).then_some(t + 10),
                0,
            ));
        }
        rt.finish();
        let rs = rt.collect();
        let r3 = rs.table("R3").unwrap();
        // Only flow A appears (inner join: flow B has no drop row).
        assert_eq!(r3.rows.len(), 1);
        let ratio = r3.rows[0].values[0].as_f64();
        assert!((ratio - 0.25).abs() < 1e-12, "ratio = {ratio}");
    }

    #[test]
    fn composition_streams_through() {
        let src = "R1 = SELECT pkt_uniq, SUM(tout-tin) GROUPBY pkt_uniq\nR2 = SELECT 5tuple FROM R1 GROUPBY 5tuple WHERE SUM(tout-tin) > L\n";
        let mut rt = runtime(src);
        // One packet with 2 ms total latency (> L = 1 ms), one with 1 µs.
        rt.process_record(&record(1, 1, 0, Some(2_000_000), 0));
        rt.process_record(&record(2, 2, 0, Some(1_000), 0));
        rt.finish();
        let rs = rt.collect();
        let r2 = rs.table("R2").unwrap();
        assert_eq!(r2.rows.len(), 1, "only the slow packet's flow qualifies");
        let srcip = r2.rows[0].values[r2.schema.index_of("srcip").unwrap()].as_i64();
        assert_eq!(srcip, i64::from(u32::from(Ipv4Addr::new(10, 0, 0, 1))));
    }

    #[test]
    fn capture_limit_bounds_rows_but_counts_all() {
        let prog = lang_compile("SELECT srcip FROM T", &fig2::default_params()).unwrap();
        let opts = CompileOptions {
            capture_limit: 5,
            ..Default::default()
        };
        let mut rt = Runtime::new(compile_program(prog, opts).unwrap());
        for i in 0..20u32 {
            rt.process_record(&record(1, i, 0, Some(10), 0));
        }
        rt.finish();
        let rs = rt.collect();
        assert_eq!(rs.tables[0].rows.len(), 5);
        assert_eq!(rs.tables[0].total_matched, 20);
    }

    #[test]
    fn store_stats_expose_evictions() {
        let prog = lang_compile("SELECT COUNT GROUPBY srcip", &fig2::default_params()).unwrap();
        let opts = CompileOptions {
            cache_pairs: 2,
            ways: 0, // fully associative, 2 entries
            ..Default::default()
        };
        let mut rt = Runtime::new(compile_program(prog, opts).unwrap());
        for i in 0..30u32 {
            rt.process_record(&record(
                (i % 3) as u8 + 1,
                i,
                u64::from(i),
                Some(u64::from(i) + 1),
                0,
            ));
        }
        rt.finish();
        let stats = rt.store_stats(0).unwrap();
        assert!(stats.evictions > 0);
        assert_eq!(stats.packets, 30);
        // Counts remain exact despite churn.
        let rs = rt.collect();
        let t = &rs.tables[0];
        let total: i64 = t
            .rows
            .iter()
            .map(|r| r.values[t.schema.index_of("COUNT").unwrap()].as_i64())
            .sum();
        assert_eq!(total, 30);
    }

    /// The in-place key is the canonical key: `build_group_key` must build
    /// exactly what `InlineKey::from_slice` builds for every width — inline
    /// through 5 words, spilled past — and hash the same.
    #[test]
    fn group_key_equals_from_slice_at_every_width() {
        let input: Vec<Value> = (0..7)
            .map(|i| match i % 3 {
                0 => Value::Int(-3 * i - 1),
                1 => Value::Float(0.5 + f64::from(i as i32)),
                _ => Value::Bool(i % 2 == 0),
            })
            .collect();
        let mut spill = Vec::new();
        for width in 0..=7usize {
            let cols: Vec<usize> = (0..width).rev().collect();
            let words: Vec<i64> = cols.iter().map(|c| value_key(&input[*c])).collect();
            let want = InlineKey::from_slice(&words);
            let got = build_group_key(&cols, &input, &mut spill);
            assert_eq!(
                matches!(got, InlineKey::Spill(_)),
                width > INLINE_KEY_WORDS,
                "width {width}"
            );
            assert_eq!(got, want, "width {width}");
            assert_eq!(
                perfq_kvstore::hash::hash_key(11, &got),
                perfq_kvstore::hash::hash_key(11, &want),
                "width {width}"
            );
        }
    }
}
