//! The sharded multi-core dataplane.
//!
//! A single [`Runtime`] stream tops out at one core. The paper's aggregation
//! model is mergeable *by construction* — §3.2 derives per-key fold state
//! that merges associatively when one flow's packets are observed at
//! different switches — and exactly the same algebra makes key-hash
//! sharding across cores sound: partition the record stream by group key,
//! run one private runtime (its own [`ExecPlan`](crate::Runtime) instance
//! and kvstore shard) per worker core, and merge the per-shard fold state
//! when the run drains.
//!
//! ```text
//!               ┌─ spsc ─▶ worker 0: Runtime (plan + stores, shard 0) ─┐
//!   records ──▶ │─ spsc ─▶ worker 1: Runtime (plan + stores, shard 1)  │─ drain:
//!   (router)    │   …                                                  │  merge fold
//!               └─ spsc ─▶ worker N: Runtime (plan + stores, shard N) ─┘  state → ResultSet
//! ```
//!
//! * **Routing** ([`ShardSpec`] / [`ShardRouter`]): the shard is a pure
//!   function of the program's *primary group key* — the key columns of the
//!   first base-rooted `GROUPBY` (falling back to the 5-tuple). Purity is
//!   the load-bearing invariant: one key can never land on two shards, so a
//!   per-key fold sees its packets on one core, in stream order.
//! * **Transport** (the crate-private `ShardGroup`): one program's router,
//!   fixed-capacity SPSC queues ([`perfq_switch::spsc`]) with batched
//!   hand-off and worker threads, quiesced between batches by handing the
//!   un-finished worker runtimes back and restarting them afterwards;
//!   [`perfq_switch::Network::run_sharded`] is the matching producer.
//! * **Drain** ([`ShardedRuntime::finish`]): workers join, each runtime
//!   flushes, and per-shard backing stores collapse through the fold merge
//!   machinery (`SplitStore::absorb_store` →
//!   `FoldOps::merge`) into one [`Runtime`] that collects exactly like the
//!   single-stream engine.
//! * **Facade** ([`ShardedRuntime`]): the public single-program plane is
//!   [`MultiSharded`] at K = 1, so poll, persist and recover are the
//!   multi-program plane's own, implemented once in its roster.
//!
//! # Exactness
//!
//! [`ShardSpec::is_exact`] reports statically whether sharded execution is
//! bit-identical to the single-stream engine (given an eviction-free
//! cache). It holds when every aggregation store satisfies one of:
//!
//! * **key confinement** — the store's key determines the shard key (shard
//!   columns ⊆ store key columns), so no key ever straddles shards: every
//!   fold class, including non-linear epoch folds and windowed folds with
//!   auxiliary replay state, behaves exactly as in the single stream;
//! * **order-free merge** — additive windowless folds (`COUNT`, `SUM`,
//!   guarded counters) merge exactly under any interleaving;
//! * **stateless overwrite** — zero-state folds (pure `GROUPBY` distinct),
//!   where every residency's value is trivially correct.
//!
//! Every Fig. 2 program is exact under its primary key. Programs outside
//! the exact set still run — cross-shard merges then carry the same
//! best-effort semantics the paper assigns to cross-switch merges of
//! non-linear state.
//!
//! One stream-order caveat survives even in exact configurations: bounded
//! **capture buffers**. A base selection's matched-row *total* is always
//! exact (totals sum across shards), but when matches exceed the capture
//! limit, single-stream retains the first `limit` rows in stream order
//! while the drain retains each shard's prefix, concatenated in shard
//! order — the global arrival order is gone once records fan out to
//! cores, the same way a real multi-pipeline ASIC's per-pipe mirror
//! buffers interleave. Retained rows are a per-shard-biased sample of the
//! matches; sizes and totals still agree exactly
//! (`tests/shard_equivalence.rs` pins both behaviours).

use crate::compiler::CompiledProgram;
use crate::durable::Durability;
use crate::multi::MultiSharded;
use crate::result::{value_key, ResultSet};
use crate::runtime::Runtime;
use perfq_lang::{QueryInput, ResolvedKind, Value};
use perfq_lang::ir::FoldClass;
use perfq_switch::{spsc, QueueRecord};
use std::thread::JoinHandle;

/// Capacity (records) of each shard's SPSC queue.
pub const DEFAULT_QUEUE_CAPACITY: usize = 8_192;
/// Producer-side batch: records staged per shard before one
/// lock-and-push hand-off (and the worker's receive batch).
pub const DEFAULT_BATCH: usize = 256;

/// How records map to shards for one compiled program: the base-schema
/// columns whose values form the shard key, and the hash seed.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Base-schema columns forming the shard key.
    cols: Vec<usize>,
    /// Bitmask over the base schema covering `cols` (row materialization).
    mask: u64,
    /// Seed of the shard hash (independent of every store's placement
    /// hash, so shard choice and bucket choice decorrelate).
    seed: u64,
    /// Statically-proven bit-exactness of sharded execution (see module
    /// docs).
    exact: bool,
}

impl ShardSpec {
    /// Derive the sharding for a compiled program: the key columns of the
    /// first streaming `GROUPBY` over the base table, or the 5-tuple when
    /// no such query exists (pure selection programs — any pure routing
    /// works, captures are unioned on drain).
    #[must_use]
    pub fn from_compiled(compiled: &CompiledProgram) -> ShardSpec {
        let program = &compiled.program;
        let primary = program
            .queries
            .iter()
            .find_map(|q| match (&q.kind, &q.input, q.collect_only) {
                (ResolvedKind::GroupBy(g), QueryInput::Base, false) => Some(g.key_cols.clone()),
                _ => None,
            });
        let cols = primary.unwrap_or_else(|| {
            let schema = perfq_lang::base_schema();
            ["srcip", "dstip", "srcport", "dstport", "proto"]
                .iter()
                .map(|n| schema.index_of(n).expect("base schema has the 5-tuple"))
                .collect()
        });
        // Exactness audit: every store must confine its keys to one shard
        // or merge order-free (module docs).
        let mut exact = true;
        for (idx, q) in program.queries.iter().enumerate() {
            let (ResolvedKind::GroupBy(g), Some(plan)) = (&q.kind, &compiled.stores[idx]) else {
                continue;
            };
            let order_free = plan.ops.is_additive()
                && matches!(g.fold.class, FoldClass::Linear { window: 0 });
            let stateless_overwrite = g.fold.state.is_empty();
            // Key confinement is only provable for base-rooted stores: a
            // composed store's key columns index an upstream output row.
            let confined = matches!(q.input, QueryInput::Base)
                && cols.iter().all(|c| g.key_cols.contains(c));
            if !(order_free || stateless_overwrite || confined) {
                exact = false;
            }
        }
        let mut mask = 0u64;
        for c in &cols {
            mask |= 1u64 << c;
        }
        ShardSpec {
            cols,
            mask,
            seed: compiled.options.hash_seed ^ 0x5ca1_ab1e_0f01_d5ed,
            exact,
        }
    }

    /// The base-schema columns forming the shard key.
    #[must_use]
    pub fn columns(&self) -> &[usize] {
        &self.cols
    }

    /// True when sharded execution is statically bit-identical to the
    /// single-stream engine (module docs; assumes an eviction-free cache,
    /// like every other exactness statement about the split store).
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// True when two specs route every record identically (same shard-key
    /// columns, same shard hash seed): shard `r` of one deployment receives
    /// exactly the records shard `r` of the other receives. This is what
    /// lets the multi-query dataplane substitute one program's drained
    /// store for another's — identical per-worker record streams imply
    /// identical per-worker store states, eviction for eviction.
    #[must_use]
    pub fn routes_like(&self, other: &ShardSpec) -> bool {
        self.cols == other.cols && self.seed == other.seed
    }

    /// Shard of a materialized base row — the same function the record
    /// router applies, exposed for oracles and property tests.
    #[must_use]
    pub fn shard_of_row(&self, row: &[Value], shards: usize) -> usize {
        let words: Vec<i64> = self.cols.iter().map(|c| value_key(&row[*c])).collect();
        perfq_kvstore::hash::shard_of_words(self.seed, &words, shards)
    }
}

/// Allocation-free record → shard mapper (owns the scratch buffers).
#[derive(Debug, Clone)]
pub struct ShardRouter {
    spec: ShardSpec,
    shards: usize,
    row: Vec<Value>,
    words: Vec<i64>,
}

impl ShardRouter {
    /// Build a router over `shards` shards.
    #[must_use]
    pub fn new(spec: ShardSpec, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardRouter {
            spec,
            shards,
            row: Vec::new(),
            words: Vec::new(),
        }
    }

    /// The routing spec.
    #[must_use]
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// The shard this record belongs to: a pure function of the record's
    /// shard-key column values (asserted by the property suite).
    pub fn route(&mut self, rec: &QueueRecord) -> usize {
        if self.shards == 1 {
            return 0;
        }
        rec.write_row_masked(&mut self.row, self.spec.mask);
        self.words.clear();
        self.words
            .extend(self.spec.cols.iter().map(|c| value_key(&self.row[*c])));
        perfq_kvstore::hash::shard_of_words(self.spec.seed, &self.words, self.shards)
    }
}

/// One program's N worker shards behind SPSC queues — the sharded plane's
/// transport: the router, the per-shard feeds and staging buffers, the
/// worker threads, quiescing between batches (`pause` / `resume`), the
/// producer hand-off (`take_feeds`) and merge-on-drain (`finish`). It knows
/// nothing of install ids, sharing or durability: [`MultiSharded`] keeps
/// one group per installed program, and its roster owns the rest.
#[derive(Debug)]
pub(crate) struct ShardGroup {
    router: ShardRouter,
    /// `None` while paused, and after [`ShardGroup::take_feeds`] handed the
    /// producer side to an external event loop.
    senders: Option<Vec<spsc::Sender<QueueRecord>>>,
    /// Producer-side staging, one buffer per shard.
    buffers: Vec<Vec<QueueRecord>>,
    workers: Vec<JoinHandle<Runtime>>,
    routed: Vec<u64>,
}

/// Spawn one worker thread behind a fresh queue: drain it in batches into
/// the runtime, return the runtime (un-finished) when the producer closes
/// the channel — which is what lets a paused dataplane resume exactly where
/// it stopped.
fn spawn_worker(mut rt: Runtime) -> (spsc::Sender<QueueRecord>, JoinHandle<Runtime>) {
    let (tx, rx) = spsc::channel::<QueueRecord>(DEFAULT_QUEUE_CAPACITY);
    let handle = std::thread::spawn(move || {
        let mut buf: Vec<QueueRecord> = Vec::with_capacity(DEFAULT_BATCH);
        loop {
            buf.clear();
            if rx.recv_many(&mut buf, DEFAULT_BATCH) == 0 {
                break;
            }
            rt.process_batch(&buf);
        }
        rt
    });
    (tx, handle)
}

/// Join a worker thread, re-raising its panic payload on the draining
/// thread instead of masking it behind a generic "worker panicked"
/// message. Pairs with the SPSC channel's peer-death handling: a dying
/// worker drops its receiver, which closes the channel and wakes a blocked
/// producer, so the drain reaches this join instead of hanging.
fn join_worker(handle: JoinHandle<Runtime>) -> Runtime {
    match handle.join() {
        Ok(rt) => rt,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

impl ShardGroup {
    /// Start one worker thread per runtime (shard order), each behind a
    /// queue of [`DEFAULT_QUEUE_CAPACITY`] records fed in batches of
    /// [`DEFAULT_BATCH`]. Routing uses the first runtime's shard spec.
    ///
    /// # Panics
    ///
    /// Panics on an empty runtime list.
    pub(crate) fn new(runtimes: Vec<Runtime>) -> Self {
        let shards = runtimes.len();
        let lead = runtimes.first().expect("need at least one shard");
        let spec = ShardSpec::from_compiled(lead.compiled());
        let (senders, workers) = runtimes.into_iter().map(spawn_worker).unzip();
        ShardGroup {
            router: ShardRouter::new(spec, shards),
            senders: Some(senders),
            buffers: (0..shards)
                .map(|_| Vec::with_capacity(DEFAULT_BATCH))
                .collect(),
            workers,
            routed: vec![0; shards],
        }
    }

    /// Quiesce the group between batches. Staged records flush to their
    /// queues, the queues close, and every worker joins, handing back its
    /// **un-finished** [`Runtime`] in shard order — caches still resident,
    /// ready for a poll, a checkpoint, a live store migration or an alias
    /// promotion. [`ShardGroup::resume`] restarts ingestion from exactly
    /// this state.
    ///
    /// # Panics
    ///
    /// Panics if the producer side was handed away via
    /// [`ShardGroup::take_feeds`] (an external event loop owns the stream;
    /// there is no between-batches point to pause at), or if a worker died.
    pub(crate) fn pause(&mut self) -> Vec<Runtime> {
        assert!(
            self.senders.is_some(),
            "cannot pause after take_feeds handed the producer side away"
        );
        self.close();
        self.workers.drain(..).map(join_worker).collect()
    }

    /// Flush the staged records and close the queues we still produce
    /// into; the workers drain them and exit.
    fn close(&mut self) {
        let Some(senders) = self.senders.take() else {
            return;
        };
        for (buf, tx) in self.buffers.iter_mut().zip(&senders) {
            if !buf.is_empty() {
                // A send error means that worker died; its join re-raises
                // the panic, which beats a disconnect message.
                let _ = tx.send_all(buf);
            }
        }
    }

    /// Restart a paused group with the given worker runtimes (shard order;
    /// normally the vector [`ShardGroup::pause`] returned, possibly with
    /// migrated stores or promoted aliases). Fresh SPSC queues are built;
    /// routing is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the group is not paused or the worker count changed.
    pub(crate) fn resume(&mut self, runtimes: Vec<Runtime>) {
        assert!(
            self.senders.is_none() && self.workers.is_empty(),
            "resume requires a paused dataplane"
        );
        assert_eq!(runtimes.len(), self.buffers.len(), "one runtime per shard");
        let (senders, workers) = runtimes.into_iter().map(spawn_worker).unzip();
        self.senders = Some(senders);
        self.workers = workers;
    }

    /// The routing spec.
    pub(crate) fn spec(&self) -> &ShardSpec {
        self.router.spec()
    }

    /// Records routed to each shard by [`ShardGroup::process_record`].
    pub(crate) fn routed(&self) -> &[u64] {
        &self.routed
    }

    /// Route one record to its shard (staged; pushed in batches).
    ///
    /// # Panics
    ///
    /// Panics if the producer side was handed away via
    /// [`ShardGroup::take_feeds`], or a worker died.
    pub(crate) fn process_record(&mut self, rec: &QueueRecord) {
        assert!(
            self.senders.is_some(),
            "producer side was taken by take_feeds"
        );
        let s = self.router.route(rec);
        self.routed[s] += 1;
        self.buffers[s].push(rec.clone());
        if self.buffers[s].len() >= DEFAULT_BATCH {
            let disconnected = {
                let senders = self.senders.as_ref().expect("checked above");
                senders[s].send_all(&mut self.buffers[s]).is_err()
            };
            if disconnected {
                // The worker's receiver is gone — it died mid-run. Join it
                // so the producer re-raises the worker's own panic instead
                // of masking it behind a generic disconnect message (a
                // clean exit without a dropped sender cannot happen).
                let handle = self.workers.remove(s);
                match handle.join() {
                    Err(payload) => std::panic::resume_unwind(payload),
                    Ok(_) => unreachable!("worker exited without a closed queue"),
                }
            }
        }
    }

    /// Hand the producer side — the router and the per-shard queue senders
    /// — to an external event loop such as
    /// [`perfq_switch::Network::run_sharded`], which must drop the senders
    /// before [`ShardGroup::finish`] can drain.
    ///
    /// # Panics
    ///
    /// Panics if records were already staged through
    /// [`ShardGroup::process_record`] (mixing producers would reorder the
    /// stream) or if the feeds were already taken.
    pub(crate) fn take_feeds(&mut self) -> (ShardRouter, Vec<spsc::Sender<QueueRecord>>) {
        assert!(
            self.buffers.iter().all(Vec::is_empty) && self.routed.iter().all(|n| *n == 0),
            "take_feeds before feeding any records"
        );
        let senders = self.senders.take().expect("feeds already taken");
        (self.router.clone(), senders)
    }

    /// Drain the group: flush staged records, close the queues, join every
    /// worker, and merge the per-shard fold state (in shard order) into one
    /// **finished** [`Runtime`], ready for [`Runtime::collect`].
    pub(crate) fn finish(mut self) -> Runtime {
        self.close();
        // Lazily: shard 0 finishes while later shards still drain.
        let mut finished = self.workers.drain(..).map(|handle| {
            let mut rt = join_worker(handle);
            rt.finish();
            rt
        });
        let mut merged = finished.next().expect("at least one shard");
        finished.for_each(|rt| merged.absorb_finished(rt));
        merged
    }
}

/// The multi-core streaming executor for one program: N worker shards
/// behind SPSC queues, merged on drain. It is [`MultiSharded`] at K = 1 —
/// one program, install id `0`, no sharing pass — so its poll, durable
/// tier and drain are that plane's, and its durable files are named
/// `p0_s<i>_…` (see [`crate::durable`]). See the module docs for the
/// architecture and exactness guarantees; the drop-in usage mirrors
/// [`Runtime`]:
///
/// ```
/// use perfq_core::{compile_query, ShardedRuntime};
/// use perfq_lang::fig2;
/// use perfq_switch::{Network, NetworkConfig};
/// use perfq_trace::{SyntheticTrace, TraceConfig};
///
/// let compiled = compile_query(
///     "SELECT COUNT GROUPBY srcip",
///     &fig2::default_params(),
///     Default::default(),
/// ).unwrap();
/// let mut sharded = ShardedRuntime::new(compiled, 2);
/// let mut net = Network::new(NetworkConfig::default());
/// net.run(
///     SyntheticTrace::new(TraceConfig::test_small(1)).take(2_000),
///     |r| sharded.process_record(&r),
/// );
/// let runtime = sharded.finish(); // join workers, merge fold state
/// let results = runtime.collect();
/// assert!(!results.tables[0].rows.is_empty());
/// ```
#[derive(Debug)]
pub struct ShardedRuntime {
    /// The K = 1 plane. Unshared, so a program's own duplicate stores stay
    /// private, exactly as a stand-alone sharded deployment runs them.
    plane: MultiSharded,
}

impl ShardedRuntime {
    /// Spawn `shards` worker runtimes, each behind a queue of
    /// [`DEFAULT_QUEUE_CAPACITY`] records fed in batches of
    /// [`DEFAULT_BATCH`].
    ///
    /// # Panics
    ///
    /// Panics on zero shards.
    #[must_use]
    pub fn new(compiled: CompiledProgram, shards: usize) -> Self {
        ShardedRuntime {
            plane: MultiSharded::new_unshared(vec![compiled], shards),
        }
    }

    /// Number of worker shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.plane.shards()
    }

    /// The routing spec (shard-key columns, exactness verdict).
    #[must_use]
    pub fn spec(&self) -> &ShardSpec {
        self.plane.sharded[0].spec()
    }

    /// Records routed to each shard so far (producer-side count; excludes
    /// records routed by an external producer after
    /// [`ShardedRuntime::take_feeds`]).
    #[must_use]
    pub fn routed(&self) -> &[u64] {
        self.plane.sharded[0].routed()
    }

    /// Route one record to its shard (staged; pushed in batches).
    ///
    /// # Panics
    ///
    /// Panics if the producer side was handed away via
    /// [`ShardedRuntime::take_feeds`], or a worker died.
    pub fn process_record(&mut self, rec: &QueueRecord) {
        self.plane.process_record(rec);
    }

    /// Route a batch of records (sugar over [`ShardedRuntime::process_record`]).
    pub fn process_batch(&mut self, recs: &[QueueRecord]) {
        self.plane.process_batch(recs);
    }

    /// Poll the dataplane's current results **without stopping the world**
    /// ([`MultiSharded::poll`]): the plane quiesces between batches, each
    /// store's per-shard frames merge through the normalization the final
    /// drain uses, and ingestion resumes. The result equals `finish()` +
    /// `collect()` on a replay of the records routed so far, and polling
    /// never perturbs the eventual drain (pinned by
    /// `tests/poll_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the producer side was handed away via
    /// [`ShardedRuntime::take_feeds`], or if a worker died.
    #[must_use]
    pub fn poll_results(&mut self) -> ResultSet {
        self.plane.poll(0).expect("program 0 is installed")
    }

    /// Hand the producer side — the router and the per-shard queue senders
    /// — to an external event loop such as
    /// [`perfq_switch::Network::run_sharded`]. The caller must drop the
    /// senders (run_sharded does, on return) before [`ShardedRuntime::finish`]
    /// can drain.
    ///
    /// # Panics
    ///
    /// Panics if records were already staged through
    /// [`ShardedRuntime::process_record`] (mixing producers would reorder
    /// the stream) or if the feeds were already taken.
    #[must_use]
    pub fn take_feeds(&mut self) -> (ShardRouter, Vec<spsc::Sender<QueueRecord>>) {
        self.plane.sharded[0].take_feeds()
    }

    /// Attach a durable spill tier to every store of every worker
    /// ([`MultiSharded::enable_durability`]): shard `i`'s stores persist
    /// under `p0_s<i>_`, and one deployment manifest covers all shards.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as a poll.
    pub fn enable_durability(&mut self, d: Durability) -> std::io::Result<()> {
        self.plane.enable_durability(d)
    }

    /// Durably checkpoint the whole plane at the current record index
    /// ([`MultiSharded::persist`]). The key-hash router is deterministic,
    /// so a recovered plane re-ingesting from the returned index routes
    /// every record to the same shard it originally reached.
    ///
    /// # Panics
    ///
    /// Panics unless [`ShardedRuntime::enable_durability`] was called, and
    /// under the same conditions as a poll.
    pub fn persist(&mut self) -> std::io::Result<()> {
        self.plane.persist()
    }

    /// Recover a crashed sharded deployment at the same shard count
    /// ([`MultiSharded::recover`]) and return it with the **resume index**
    /// (see [`Runtime::recover`]); the drain's record count includes the
    /// checkpointed prefix.
    pub fn recover(
        compiled: CompiledProgram,
        shards: usize,
        d: Durability,
    ) -> std::io::Result<(Self, u64)> {
        let (plane, at) = MultiSharded::new_unshared(vec![compiled], shards).recovered(d)?;
        Ok((ShardedRuntime { plane }, at))
    }

    /// Drain the dataplane: flush staged records, close the queues, join
    /// every worker, and merge the per-shard fold state (in shard order)
    /// into one **finished** [`Runtime`], ready for
    /// [`Runtime::collect`].
    #[must_use]
    pub fn finish(self) -> Runtime {
        self.plane.finish().pop().expect("one program")
    }

    /// Drain and collect in one step.
    #[must_use]
    pub fn finish_collect(self) -> ResultSet {
        self.finish().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::CompileOptions;
    use crate::compile_query;
    use perfq_lang::fig2;
    use perfq_switch::{Network, NetworkConfig};
    use perfq_trace::{SyntheticTrace, TraceConfig};

    fn compiled(src: &str) -> CompiledProgram {
        compile_query(src, &fig2::default_params(), CompileOptions::default()).unwrap()
    }

    fn records(n: usize) -> Vec<QueueRecord> {
        let mut net = Network::new(NetworkConfig::default());
        net.run_collect(SyntheticTrace::new(TraceConfig::test_small(11)).take(n))
    }

    #[test]
    fn spec_uses_primary_groupby_key() {
        let c = compiled("SELECT COUNT GROUPBY srcip, dstip");
        let spec = ShardSpec::from_compiled(&c);
        let schema = perfq_lang::base_schema();
        assert_eq!(
            spec.columns(),
            &[
                schema.index_of("srcip").unwrap(),
                schema.index_of("dstip").unwrap()
            ]
        );
        assert!(spec.is_exact());
    }

    #[test]
    fn spec_falls_back_to_five_tuple_for_selections() {
        let c = compiled("SELECT srcip FROM T WHERE tout - tin > 1ms");
        let spec = ShardSpec::from_compiled(&c);
        assert_eq!(spec.columns().len(), 5);
        assert!(spec.is_exact(), "no stores at all");
    }

    #[test]
    fn fig2_programs_are_statically_exact() {
        for q in fig2::ALL {
            let c = compile_query(q.source, &fig2::default_params(), CompileOptions::default())
                .unwrap();
            assert!(
                ShardSpec::from_compiled(&c).is_exact(),
                "{} must shard exactly",
                q.name
            );
        }
    }

    #[test]
    fn non_confining_nonlinear_program_is_flagged() {
        // First groupby keys by srcip; the second, non-linear one keys by
        // dstip — its keys straddle shards, so exactness cannot be proven.
        let src = "def nonmt ((maxseq, nm_count), tcpseq):\n    if maxseq > tcpseq:\n        nm_count = nm_count + 1\n    maxseq = max(maxseq, tcpseq)\n\nR1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT dstip, nonmt GROUPBY dstip\n";
        let c = compiled(src);
        assert!(!ShardSpec::from_compiled(&c).is_exact());
    }

    #[test]
    fn router_is_pure_in_the_key() {
        let c = compiled("SELECT COUNT GROUPBY srcip, dstip");
        let mut router = ShardRouter::new(ShardSpec::from_compiled(&c), 4);
        let recs = records(2_000);
        let mut by_key = std::collections::HashMap::new();
        for r in &recs {
            let shard = router.route(r);
            let key = (r.packet.headers.ipv4.src, r.packet.headers.ipv4.dst);
            let prev = by_key.insert(key, shard);
            if let Some(p) = prev {
                assert_eq!(p, shard, "key {key:?} routed to two shards");
            }
        }
        assert!(by_key.len() > 4, "trace must exercise several keys");
    }

    #[test]
    fn sharded_counts_match_single_stream() {
        let recs = records(3_000);
        let c = compiled("SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip");
        let mut single = Runtime::new(c.clone());
        for r in &recs {
            single.process_record(r);
        }
        single.finish();
        for shards in [1usize, 2, 5] {
            let mut sh = ShardedRuntime::new(c.clone(), shards);
            sh.process_batch(&recs);
            let merged = sh.finish();
            assert_eq!(merged.records(), single.records());
            assert_eq!(merged.collect(), single.collect(), "{shards} shards");
        }
    }

    #[test]
    fn take_feeds_runs_through_network_producer() {
        let c = compiled("SELECT COUNT GROUPBY srcip");
        let packets: Vec<_> = SyntheticTrace::new(TraceConfig::test_small(11))
            .take(2_000)
            .collect();
        let mut net = Network::new(NetworkConfig::default());
        let want = {
            let mut rt = Runtime::new(c.clone());
            for r in net.run_collect(packets.clone().into_iter()) {
                rt.process_record(&r);
            }
            rt.finish();
            rt.collect()
        };
        let mut sh = ShardedRuntime::new(c, 3);
        let (mut router, senders) = sh.take_feeds();
        let routed = net.run_sharded(packets.into_iter(), |r| router.route(r), senders, 64);
        assert_eq!(routed.iter().sum::<u64>(), 2_000);
        assert_eq!(sh.finish_collect(), want);
    }
}
