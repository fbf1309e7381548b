//! The multi-query concurrent dataplane under one SRAM area budget.
//!
//! §3.3's hardware argument prices a *fixed* slice of switch SRAM
//! (~32 Mbit, < 2.5 % of a 200 mm² die) that every concurrently-installed
//! query shares. Running one [`Runtime`] per query with an
//! independently-sized cache quietly multiplies that budget by the number of
//! queries; this module closes the gap from both ends:
//!
//! * **Provisioning** ([`MultiRuntime::provisioned`]): the kvstore's
//!   [`CachePlanner`] divides a budget in bits across the installed
//!   programs — using the key/state widths each compiled program reports
//!   (`StorePlan::pair_bits`, ultimately `ResolvedProgram::store_widths` in
//!   the language front end) — and the resulting [`AreaPlan`] is written
//!   back into every store's
//!   [`CacheGeometry`](perfq_kvstore::CacheGeometry). The §4 arithmetic becomes
//!   the geometry the dataplane actually runs.
//! * **Shared ingest** ([`Deployment::process_batch`]): K installed
//!   programs are driven from **one** replay pass on the caller's thread.
//!   Each record's base row materializes once, with the *union* of the
//!   programs' pruned column masks, and the row is dispatched to every
//!   program's flat plan — so K concurrent Fig. 2 queries cost one trip
//!   through the network event loop and one row materialization instead of
//!   K full replays.
//! * **Cross-query store sharing** (see below): identical base-rooted
//!   stores across the installed programs are charged to the budget and
//!   updated **once**. Everything else — filters, key builds, folds — each
//!   program's plan sweeps on its own.
//!
//! ```text
//!                                            ┌─▶ ExecPlan(program 0) ─▶ stores₀ (slice₀)
//!   packets ─▶ Network ─▶ row (union mask) ──┼─▶ ExecPlan(program 1) ─▶ stores₁ (slice₁)
//!                          (once)            └─▶ ExecPlan(program K) ─▶ storesₖ (sliceₖ)
//!                                                 (own filters and keys; deduped aggregations
//!                                                  skipped, one physical store serves all readers)
//! ```
//!
//! # One lifecycle
//!
//! The paper's queries "are installed at run time" against one fixed SRAM
//! slice (§3.3). The module therefore has one public type, [`Deployment`]
//! (public name [`MultiRuntime`]): one [`Runtime`] per installed program,
//! the chunk buffers of the shared ingest pass, and beside them the
//! bookkeeping — the programs' stable ids and install epochs, the budget,
//! the settled dedup pairs (the one record of what is shared) and the
//! durable tier. Each runtime's compiled program is the one record of its
//! store plans at their planned geometries. A poll, a lifecycle event or
//! a durable call runs over the runtimes, program by program (nothing runs
//! between two calls on the caller's thread, so there is nothing to
//! quiesce):
//!
//! ```text
//!   new / provisioned (programs)             uninstall(id)
//!   install(program)                         poll the departing program → results
//!   ── dry run (nothing mutated) ──          publish them (durable tier)
//!   per arrival: nominate owners             promote departing owners' stores
//!   CachePlanner, once                       drop the departing runtime
//!   build arrivals, aliases stop streaming   re-index bookkeeping
//!   ── commit ──                             replan ─▶ migrate
//!   migrate ─▶ adopt the arrivals
//! ```
//!
//! There is one way in: a constructor installs its whole program list into
//! an empty deployment as one staged install, and
//! [`Deployment::install`] is the one-program case — so a deployment built
//! at once and one built by installs share the same stores, run the same
//! geometries and read the same. Every [`PlanError`] and, under
//! durability, a failed spill-tier attach surface from the dry run as a
//! [`crate::Error`] with the deployment untouched; a failed final read or
//! publish of an uninstall's results returns its I/O error with the
//! deployment untouched.
//!
//! The sharded plane ([`ShardedRuntime`](crate::ShardedRuntime)) runs one
//! program on N workers and is not a deployment: it has no installs, no
//! sharing and no budget.
//!
//! # Cross-query sharing
//!
//! Sharing is part of every install — of a constructor's whole program
//! list as of one live arrival — in two steps:
//!
//! 1. **Compare** — each arrival in turn searches the stores before it for
//!    an owner (`lifecycle_alias_candidates`, the one owner search),
//!    holding every candidate pair to the one legality rule,
//!    which is also the one notion of identity: `same_store`, over the
//!    plans that actually run. Two stores may legally collapse into one
//!    only when both plan nodes are active aggregations over the **base
//!    table**, their compiled filters (with parameters bound, so
//!    `proto == TCP` is `proto == 6`) and key columns are equal, their
//!    programs demand the same associativity, and their store plans match
//!    — same cache geometry, same eviction policy, same placement hash
//!    seed, same widths, the same dataplane fold. A composed store (a
//!    `GROUPBY` over another query) is never shared: it streams its
//!    upstream cache's *residency-local* values (§3.2), so two programs
//!    with identical composed chains keep private stores. Without a budget
//!    geometries never change, so the search compares them; under one the
//!    planner sets them, so it does not. Every shared pair is therefore one
//!    planner dedup group, which the planner gives one geometry at every
//!    replan — no replan can pull a pair apart, and the deduplicated
//!    dataplane is byte-identical to the private-store one for every fold
//!    class, eviction for eviction, epoch for epoch.
//! 2. **Rewrite** — each *alias* aggregation (a duplicate whose rows no
//!    downstream query consumes) is removed from its runtime's streaming
//!    pass entirely (`Runtime::set_streaming`, once the runtime is built);
//!    at the drain ([`MultiRuntime::finish`]) the owning program's
//!    finished store is substituted back, so collection reads exactly what
//!    a private store would have held. Every other node stays in its
//!    program's plan, which sweeps each chunk with its own filters and
//!    keys.
//!
//! The paper's own query set overlaps this way: the loss-rate program's
//! `R1 = SELECT COUNT GROUPBY 5tuple` *is* the §4 running-example counter
//! query. The deployment's settled pairs are the one record of what is
//! shared: the compiled programs carry no mark (an alias leaves its
//! runtime's streaming pass after it is built, and rejoins it when
//! promoted), and [`SharingReport`] (from [`Deployment::sharing`]) is
//! derived from the pairs on each call. Under a budget every deduplicated
//! store is also charged to the SRAM budget **once**, and the reclaimed
//! bits grow every physical cache
//! ([`StoreDemand::dedup`](perfq_kvstore::StoreDemand)).
//!
//! Sharing is a **pure optimization**: execution with sharing enabled is
//! byte-identical to the unshared build — and to K independent sequential
//! replays — on the single-record and batched paths
//! (`tests/multi_query_equivalence.rs` pins both; the steady state of the
//! batched path still allocates nothing, `tests/alloc_discipline.rs`).

use crate::compiler::{CompiledProgram, StorePlan};
use crate::durable::{read_retired, write_retired, Durability};
use crate::plan::{ExecPlan, NodeKind, RowSource};
use crate::result::ResultSet;
use crate::runtime::{Lanes, Runtime};
use crate::Error;
use perfq_kvstore::{AreaPlan, CachePlanner, PlanError, QueryAllocation, QueryDemand, StoreDemand};
use perfq_switch::{Network, QueueRecord};

/// The planner demand set of the current deployment: one [`QueryDemand`]
/// named `q{id}` per store-bearing program (`ids[i]` is program `i`'s
/// stable install id — a deployment's programs are installed as ids
/// `0..K`, so the names match the documented `q{i}` convention), with
/// the owner and each alias of every dedup pair tagged into one
/// [`StoreDemand::dedup`] group, whose token is the owner's coordinates.
/// Returns the covered program indices in demand order alongside, so
/// allocations can be written back positionally.
fn lifecycle_demands(
    programs: &[CompiledProgram],
    ids: &[u64],
    aliases: &[Pair],
) -> (Vec<usize>, Vec<QueryDemand>) {
    let dedup_of = |store: (usize, usize)| {
        let (_, (op, oq)) = aliases
            .iter()
            .find(|(alias, owner)| *alias == store || *owner == store)?;
        Some(((*op as u64) << 32) | *oq as u64)
    };

    let mut idxs = Vec::new();
    let mut demands = Vec::new();
    for (i, p) in programs.iter().enumerate() {
        let stores: Vec<StoreDemand> = p
            .stores
            .iter()
            .enumerate()
            .filter_map(|(qi, s)| s.as_ref().map(|sp| (qi, sp)))
            .map(|(qi, sp)| {
                let d = StoreDemand::new(sp.pair_bits(), p.options.ways);
                match dedup_of((i, qi)) {
                    Some(g) => d.with_dedup(g),
                    None => d,
                }
            })
            .collect();
        if !stores.is_empty() {
            idxs.push(i);
            demands.push(QueryDemand::new(format!("q{}", ids[i]), stores));
        }
    }
    (idxs, demands)
}

/// Write an allocation's geometries into a compiled program's store plans.
fn apply_allocation(compiled: &mut CompiledProgram, alloc: &QueryAllocation) {
    let mut stores = alloc.stores.iter();
    for s in compiled.stores.iter_mut().flatten() {
        let a = stores.next().expect("an allocation per store");
        debug_assert_eq!(s.pair_bits(), a.pair_bits, "allocation order matches");
        s.geometry = a.geometry;
    }
    assert!(
        stores.next().is_none(),
        "allocations cover exactly the stores"
    );
}

// ---------------------------------------------------------------------------
// Sharing analysis
// ---------------------------------------------------------------------------

/// One store-dedup pair: `(alias (program, query), owner (program, query))`.
/// The owner precedes its aliases in (program, query) order and is never
/// itself an alias.
type Pair = ((usize, usize), (usize, usize));

/// One program as the identity rule reads it: its compiled store plans
/// beside the execution plan that runs them.
pub(crate) type Side<'a> = (&'a CompiledProgram, &'a ExecPlan);

/// Physical store-plan identity: geometry, eviction policy, placement hash
/// seed, key/value widths, key layout and the dataplane fold.
///
/// `geometry: false` drops the geometry comparison — the relaxed rule an
/// install nominates with under a budget. An arrival carries its compiled
/// geometries while the deployment carries provisioned ones, so geometry
/// equality would reject every candidate the replan is about to *make*
/// equal: the planner gives a dedup group one geometry. Without a budget
/// geometries never change, so an install nominates with the strict rule
/// (`geometry: true`) and a pair runs one geometry either way.
fn phys_eq(a: &StorePlan, b: &StorePlan, geometry: bool) -> bool {
    (!geometry || a.geometry == b.geometry)
        && a.policy == b.policy
        && a.hash_seed == b.hash_seed
        && a.key_bits == b.key_bits
        && a.key_layout == b.key_layout
        && a.value_bits == b.value_bits
        && a.ops.dataplane_identical(&b.ops)
}

/// The store-identity rule, and the only place that decides it: query `ai`
/// of `a` and query `bi` of `b` are the same store when both plan nodes are
/// active aggregations over the base table with equal compiled filters and
/// equal key columns, both programs demand the same associativity, and
/// their store plans pass [`phys_eq`]. The plans bind parameters at build
/// time, so `proto == TCP` and `proto == 6` compile to the same filter. A
/// store's own output layout does not count: each program formats its rows
/// from the shared `(key, state)` pairs. The rule is made of equalities
/// only, so it is an equivalence relation.
///
/// Base-rooted stores with equal pair widths and associativity are what the
/// planner mirrors (one [`StoreDemand::dedup`] group, one geometry at every
/// replan), so a pair this rule admits stays one store for life. A composed
/// store streams its upstream cache's residency-local values (§3.2), and
/// [`CachePlanner`]'s associativity clamp can make stores of different
/// demanded associativity coincide at a small slice only to part at the
/// next replan; neither is shared.
pub(crate) fn same_store(a: Side, ai: usize, b: Side, bi: usize, geometry: bool) -> bool {
    let (na, nb) = (&a.1.nodes[ai], &b.1.nodes[bi]);
    let keys_equal = match (&na.kind, &nb.kind) {
        (NodeKind::GroupBy { key_cols: x, .. }, NodeKind::GroupBy { key_cols: y, .. }) => x == y,
        _ => false,
    };
    let stores_equal = match (&a.0.stores[ai], &b.0.stores[bi]) {
        (Some(x), Some(y)) => phys_eq(x, y, geometry),
        _ => false,
    };
    let base_rooted = matches!((na.source, nb.source), (RowSource::Base, RowSource::Base));
    na.active
        && nb.active
        && base_rooted
        && keys_equal
        && na.filter == nb.filter
        && a.0.options.ways == b.0.options.ways
        && stores_equal
}

/// Nominate store-dedup pairs for program `new_idx` — the owner search, and
/// the only one. Its non-emitting aggregations (an emitting one feeds
/// downstream queries its per-record running values and cannot leave the
/// streaming pass) each take the first earlier store in (program, query)
/// order that [`same_store`] matches and that is not itself an alias
/// (`prev` or this call's own pairs). Exactness of an alias rests on the
/// owner's store holding exactly the state the alias's private store would
/// have held, **from the beginning of the alias's stream** — so on top of
/// the rule two lifecycle conditions apply:
///
/// * **equal install epochs** (`epochs`, records-processed at install):
///   the owner must have observed precisely the records the new query
///   will be accountable for. Equal epochs mean the owner's store was
///   empty when the pair forms, and mirrored geometries keep the two
///   hypothetical stores identical from then on.
/// * **freshness**: only program `new_idx` may take the alias side, and
///   only programs before it may own (besides its own earlier queries).
///   Two long-lived programs whose stores drifted through different
///   geometry histories can momentarily look identical; re-aliasing them
///   would erase that history. (Their pairs, if legal, formed when *they*
///   were installed and are carried in the deployment's settled alias
///   list.)
///
/// An install nominates with the strict rule without a budget and with
/// the relaxed one under a budget (`geometry`, see [`phys_eq`]); either
/// way a nominated pair runs one geometry, so there is no confirm step.
fn lifecycle_alias_candidates(
    programs: &[CompiledProgram],
    plans: &[ExecPlan],
    epochs: &[u64],
    prev: &[Pair],
    new_idx: usize,
    geometry: bool,
) -> Vec<Pair> {
    let side = |p: usize| (&programs[p], &plans[p]);
    let mut out: Vec<Pair> = Vec::new();
    for (qi, node) in plans[new_idx].nodes.iter().enumerate() {
        if node.emits {
            continue;
        }
        'owners: for op in (0..=new_idx).filter(|&op| epochs[op] == epochs[new_idx]) {
            // Within the new program itself, only earlier queries may own.
            let limit = if op == new_idx {
                qi
            } else {
                programs[op].stores.len()
            };
            for oq in 0..limit {
                // An owner must not itself be an alias (of any vintage).
                let alias = |((ap, aq), _): &Pair| (*ap, *aq) == (op, oq);
                if !prev.iter().chain(&out).any(alias)
                    && same_store(side(new_idx), qi, side(op), oq, geometry)
                {
                    out.push(((new_idx, qi), (op, oq)));
                    break 'owners;
                }
            }
        }
    }
    out
}

/// One deduplicated store: the alias reads the owner's physical store.
#[derive(Debug, Clone)]
pub struct SharedStore {
    /// The program/query owning the physical store.
    pub owner: (usize, String),
    /// The program/query whose private store was elided.
    pub alias: (usize, String),
}

/// What a multi-query install shared, for reports and examples
/// ([`Deployment::sharing`]).
#[derive(Debug, Clone, Default)]
pub struct SharingReport {
    /// Aggregation stores collapsed into one physical store.
    pub stores: Vec<SharedStore>,
}

impl SharingReport {
    /// True when the pass found anything to share.
    #[must_use]
    pub fn any(&self) -> bool {
        !self.stores.is_empty()
    }
}

// ---------------------------------------------------------------------------
// The deployment
// ---------------------------------------------------------------------------

/// A validated install ([`Deployment::stage_install`]); nothing is mutated
/// until [`Deployment::commit`].
struct StagedInstall {
    /// The grown deployment's programs at their planned geometries: the
    /// residents migrate to theirs at commit, the arrivals were built at
    /// theirs.
    programs: Vec<CompiledProgram>,
    /// The planner's output; `None` without a budget or without any store.
    plan: Option<AreaPlan>,
    /// Every dedup pair of the grown deployment, the arrivals' last.
    aliases: Vec<Pair>,
    /// Each arrival's fresh runtime, in install order.
    arrivals: Vec<Runtime>,
}

/// The durable file-name component of install id `id`: `p<id>_`, stable
/// across the index shifts of install/uninstall.
fn component(id: u64) -> String {
    format!("p{id}_")
}

/// Every runtime with its durable file-name component, in program order.
fn named<'r>(ids: &[u64], runtimes: &'r mut [Runtime]) -> Vec<(String, &'r mut Runtime)> {
    (ids.iter().zip(runtimes))
        .map(|(id, rt)| (component(*id), rt))
        .collect()
}

/// K installed programs behind one shared ingest pass on the caller's
/// thread: each record's base row materializes once, with the union of the
/// programs' column masks, and every program's plan sweeps it. Usage
/// mirrors [`Runtime`]; every entry point is semantically K independent
/// runtimes fed the same records, and is pinned byte-identical to exactly
/// that. Its public name is [`MultiRuntime`].
///
/// Beside the runtimes it keeps the lifecycle bookkeeping — which programs
/// are installed under which ids and budget, which stores are
/// deduplicated, where the deployment persists — and runs install,
/// uninstall, replan → migrate, polls and the durable tier over it. Each
/// runtime's compiled program is the one record of that program's store
/// plans at their planned geometries.
#[derive(Debug)]
pub struct Deployment {
    /// One runtime per installed program, in program order.
    runtimes: Vec<Runtime>,
    /// Chunk-wide row buffers ([`Deployment::process_batch`]): one chunk
    /// materializes at a time, then each program sweeps it node-at-a-time
    /// — a program's stores and bytecode state stay hot across the chunk
    /// instead of being evicted K−1 times per record.
    lanes: Lanes,
    /// Settled store-dedup pairs — the one record of what is shared: the
    /// alias queries are out of their runtimes' streaming pass,
    /// substitutions apply on drain, and [`Deployment::sharing`] reports
    /// them.
    aliases: Vec<Pair>,
    /// Stable install ids, parallel to `runtimes` — program indices shift
    /// on uninstall, ids never do.
    ids: Vec<u64>,
    /// Next install id to hand out.
    next_id: u64,
    /// Deployment record count at each program's install — the store-dedup
    /// epoch gate ([`lifecycle_alias_candidates`]).
    epochs: Vec<u64>,
    /// The SRAM budget the deployment was provisioned under, if any;
    /// every install and uninstall replans it.
    budget: Option<u64>,
    /// Records the deployment has processed (programs installed later have
    /// seen only a suffix).
    records: u64,
    /// Whether installs search for store owners (cross-query sharing).
    share: bool,
    /// Durable-tier configuration ([`Deployment::enable_durability`]); the
    /// deployment holds the single manifest, and programs installed later
    /// join the tier on arrival.
    durability: Option<Durability>,
    /// Record index of the last manifested checkpoint (stale-capture
    /// cleanup; see [`Runtime`]'s field of the same name).
    persisted_at: Option<u64>,
    /// Whether the deployment was drained in place
    /// ([`MultiRuntime::finish`]); installs are refused from then on.
    finished: bool,
}

/// The multi-query plane's public name:
///
/// ```
/// use perfq_core::{compile_query, MultiRuntime};
/// use perfq_lang::fig2;
/// use perfq_switch::{Network, NetworkConfig};
/// use perfq_trace::{SyntheticTrace, TraceConfig};
///
/// let programs: Vec<_> = [&fig2::PER_FLOW_COUNTERS, &fig2::LATENCY_EWMA]
///     .iter()
///     .map(|q| {
///         compile_query(q.source, &fig2::default_params(), Default::default()).unwrap()
///     })
///     .collect();
/// // One 32 Mbit SRAM budget provisions both queries' caches…
/// let (mut multi, plan) =
///     MultiRuntime::provisioned(programs, 32 * 1024 * 1024).unwrap();
/// assert!(plan.allocated_bits() <= plan.budget_bits);
/// // …and one replay pass drives both programs.
/// let mut net = Network::new(NetworkConfig::default());
/// multi.process_network(&mut net, SyntheticTrace::new(TraceConfig::test_small(1)).take(2_000), 256);
/// multi.finish();
/// let results = multi.collect();
/// assert_eq!(results.len(), 2);
/// ```
pub type MultiRuntime = Deployment;

impl Deployment {
    /// Build a deployment by installing `programs`, in order, into an
    /// empty one — the one way in: construction and
    /// [`Deployment::install`] share the owner search, the one planner run
    /// and the commit ([`Deployment::stage_install`]). Install ids are
    /// `0..K`. Returns the plan alongside (`None` without a budget); under
    /// a budget, a program list without any store is
    /// [`PlanError::EmptyDemands`]. An empty deployment has no durable
    /// tier, so only the planner can refuse.
    ///
    /// # Panics
    ///
    /// Panics on an empty program list (under a budget that is
    /// [`PlanError::EmptyDemands`] first).
    fn installing(
        programs: Vec<CompiledProgram>,
        share: bool,
        budget: Option<u64>,
    ) -> Result<(Self, Option<AreaPlan>), Error> {
        let mut deployment = Deployment {
            runtimes: Vec::new(),
            lanes: Lanes::default(),
            aliases: Vec::new(),
            ids: Vec::new(),
            next_id: 0,
            epochs: Vec::new(),
            budget,
            records: 0,
            share,
            durability: None,
            persisted_at: None,
            finished: false,
        };
        let mut staged = deployment.stage_install(programs)?;
        let plan = staged.plan.take();
        if budget.is_some() && plan.is_none() {
            return Err(PlanError::EmptyDemands.into());
        }
        assert!(!staged.arrivals.is_empty(), "need at least one program");
        deployment.commit(staged);
        Ok((deployment, plan))
    }

    /// [`Deployment::installing`] without a budget, which no plan refuses.
    fn unbudgeted(programs: Vec<CompiledProgram>, share: bool) -> Self {
        let unplanned = Self::installing(programs, share, None);
        unplanned.expect("an unbudgeted install cannot fail").0
    }

    /// The installed programs' compiled forms, in program order — a
    /// replan's working copy of the store plans the runtimes carry.
    fn programs(&self) -> Vec<CompiledProgram> {
        (self.runtimes.iter())
            .map(|rt| rt.compiled().clone())
            .collect()
    }

    /// Run the planner **once** over `programs` (named by `ids`, dedup
    /// groups from `aliases`) under the deployment's budget and write the
    /// planned geometries into `programs` — every [`PlanError`] surfaces
    /// here, before anything live is touched. Every settled pair is one
    /// dedup group, so the plan gives both sides one geometry. Without a
    /// budget (or without any store) geometries never change and there is
    /// no plan.
    ///
    /// This is the deployment's only planner call: construction is an
    /// install into an empty deployment, so `provisioned`'s plan comes
    /// from here too.
    fn replan(
        &self,
        programs: &mut [CompiledProgram],
        ids: &[u64],
        aliases: &[Pair],
    ) -> Result<Option<AreaPlan>, PlanError> {
        let Some(budget) = self.budget else {
            return Ok(None);
        };
        let (idxs, demands) = lifecycle_demands(programs, ids, aliases);
        if demands.is_empty() {
            return Ok(None);
        }
        let plan = CachePlanner::new(budget).plan(&demands)?;
        for (pi, alloc) in idxs.into_iter().zip(&plan.queries) {
            apply_allocation(&mut programs[pi], alloc);
        }
        Ok(Some(plan))
    }

    /// Live-migrate every store of the installed runtimes to its geometry
    /// in `programs` (program order; an install's arrivals, built at
    /// theirs, are not admitted yet) — dormant alias stores too, so their
    /// compiled geometries track the plan. A store already at its geometry
    /// does not move, so without a budget nothing moves.
    fn migrate(&mut self, programs: &[CompiledProgram]) {
        for (program, rt) in programs.iter().zip(&mut self.runtimes) {
            for (qi, store) in program.stores.iter().enumerate() {
                if let Some(store) = store {
                    rt.migrate_store(qi, store.geometry);
                }
            }
        }
    }

    /// The dry run of an install of `arrivals`, in order, after the
    /// residents — a deployment's construction is this call on an empty
    /// deployment, a live install its one-program case. Each arrival
    /// searches the stores before it for owners
    /// ([`lifecycle_alias_candidates`]), the planner runs once over the
    /// grown deployment ([`Deployment::replan`]), and every arrival's
    /// runtime is built — under durability with its spill tiers attached.
    /// Nothing is mutated, so an `Err` leaves the deployment untouched; a
    /// failed attach only burns the install ids up to the failing
    /// arrival's, so a retry never re-opens half-written files.
    fn stage_install(&mut self, arrivals: Vec<CompiledProgram>) -> Result<StagedInstall, Error> {
        let residents = self.runtimes.len();
        let mut programs = self.programs();
        programs.extend(arrivals);
        let mut ids = self.ids.clone();
        ids.extend(self.next_id..self.next_id + (programs.len() - residents) as u64);
        let mut epochs = self.epochs.clone();
        epochs.resize(programs.len(), self.records);
        let plans: Vec<ExecPlan> = (programs.iter())
            .map(|p| ExecPlan::build(&p.program))
            .collect();
        // Without a budget geometries never change, so an owner must match
        // at the geometry it runs; under one the planner gives every dedup
        // group one geometry, so the search leaves geometry out.
        let strict = self.budget.is_none();
        let mut aliases = self.aliases.clone();
        if self.share {
            for new_idx in residents..programs.len() {
                let found = lifecycle_alias_candidates(
                    &programs, &plans, &epochs, &aliases, new_idx, strict,
                );
                aliases.extend(found);
            }
        }
        let plan = self.replan(&mut programs, &ids, &aliases)?;
        let side = |p: usize| (&programs[p], &plans[p]);
        let strict_pair =
            |((ap, aq), (op, oq)): &Pair| same_store(side(*ap), *aq, side(*op), *oq, true);
        debug_assert!(
            aliases.iter().all(strict_pair),
            "every shared pair runs one geometry"
        );

        // Each arrival starts at its planned geometries with its alias
        // queries out of the streaming pass; the residents migrate to
        // theirs at commit.
        let mut built = Vec::new();
        for (pi, &id) in ids.iter().enumerate().skip(residents) {
            let mut rt = Runtime::new(programs[pi].clone());
            let own = aliases[self.aliases.len()..]
                .iter()
                .filter(|((ap, _), _)| *ap == pi);
            for ((_, aq), _) in own {
                rt.set_streaming(*aq, false);
            }
            if let Some(d) = &self.durability {
                if let Err(e) = rt.enable_durability_prefixed(d, &component(id)) {
                    self.next_id = id + 1;
                    return Err(e.into());
                }
            }
            built.push(rt);
        }
        Ok(StagedInstall {
            programs,
            plan,
            aliases,
            arrivals: built,
        })
    }

    /// Commit a staged install: the residents migrate to their planned
    /// geometries and the arrivals [`Deployment::stage_install`] built are
    /// admitted under the next install ids, in order. Returns the first
    /// arrival's id.
    fn commit(&mut self, staged: StagedInstall) -> u64 {
        let first = self.next_id;
        self.next_id += staged.arrivals.len() as u64;
        self.ids.extend(first..self.next_id);
        self.epochs.resize(self.ids.len(), self.records);
        self.migrate(&staged.programs);
        self.runtimes.extend(staged.arrivals);
        self.aliases = staged.aliases;
        first
    }

    /// Program `pos`'s current results, polled over the read-only
    /// runtimes: each query reads its own live store or — a deduplicated
    /// alias — its owner's (the redirection the drain applies by
    /// substitution, read-only here). A spill tier that cannot be read
    /// fails the read with its I/O error.
    fn polled(&self, pos: usize) -> Result<ResultSet, Error> {
        let one = |p: usize| std::slice::from_ref(&self.runtimes[p]);
        let mut stores: Vec<_> = (self.runtimes[pos].compiled().stores.iter())
            .enumerate()
            .map(|(q, store)| store.as_ref().map(|_| (one(pos), q)))
            .collect();
        for ((ap, aq), (op, oq)) in &self.aliases {
            if *ap == pos {
                stores[*aq] = Some((one(*op), *oq));
            }
        }
        crate::runtime::poll_collect(one(pos), &stores)
    }

    /// Install several compiled programs, in order, behind one ingest pass,
    /// with whatever geometries they already carry and cross-query sharing
    /// enabled — the same as installing them one by one into a deployment
    /// of the first (see the module docs; sharing is a pure optimization,
    /// pinned byte-identical to [`MultiRuntime::new_unshared`]).
    ///
    /// # Panics
    ///
    /// Panics on an empty program list.
    #[must_use]
    pub fn new(programs: Vec<CompiledProgram>) -> Self {
        Self::unbudgeted(programs, true)
    }

    /// [`MultiRuntime::new`] without cross-query sharing — the
    /// shared-ingest-only configuration. Differential tests and the
    /// `multi_query_shared` ratio guards use this as the sharing baseline.
    #[doc(hidden)]
    #[must_use]
    pub fn new_unshared(programs: Vec<CompiledProgram>) -> Self {
        Self::unbudgeted(programs, false)
    }

    /// Install programs, in order, under a shared SRAM budget: the owner
    /// search runs first, then the planner once over the whole list (store
    /// dedup included — a shared pair is charged once and runs one
    /// geometry, whatever cache sizes its programs were compiled with).
    /// Returns the plan alongside; program `i`'s slice is its query
    /// `"q{i}"`, and [`MultiRuntime::runtimes`] carry the provisioned
    /// geometries.
    ///
    /// # Errors
    ///
    /// [`Error::Plan`]: [`PlanError::EmptyDemands`] when no program has a
    /// store, and whatever else the planner rejects.
    pub fn provisioned(
        programs: Vec<CompiledProgram>,
        budget_bits: u64,
    ) -> Result<(Self, AreaPlan), Error> {
        let (deployment, plan) = Self::installing(programs, true, Some(budget_bits))?;
        Ok((deployment, plan.ok_or(PlanError::EmptyDemands)?))
    }

    /// Recover a crashed multi-query deployment that had **no mid-stream
    /// lifecycle events**: rebuild over the same program list (the install
    /// is deterministic, so aliases, store layout, and durable file names
    /// all reproduce) and repair each program's files against
    /// the single deployment manifest. Returns the deployment with the
    /// resume index (see [`Runtime::recover`]); the checkpointed record
    /// count lands on every program's runtime, so a drain after re-ingest
    /// covers the whole stream. Deployments that installed or uninstalled
    /// mid-stream are out of recovery's scope — but their retired files
    /// stay readable ([`Deployment::retired`]).
    ///
    /// # Errors
    ///
    /// As [`Runtime::recover`].
    pub fn recover(programs: Vec<CompiledProgram>, d: Durability) -> Result<(Self, u64), Error> {
        let mut deployment = Self::new(programs);
        let resume =
            crate::durable::recover(&d, &mut named(&deployment.ids, &mut deployment.runtimes))?;
        let at = resume.unwrap_or(0);
        for rt in &mut deployment.runtimes {
            rt.resume_records(at);
        }
        deployment.records = at;
        deployment.persisted_at = resume;
        deployment.durability = Some(d);
        Ok((deployment, at))
    }

    /// Number of installed programs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no program is installed (only possible after
    /// [`Deployment::uninstall`] removed the last one).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The stable install ids, in program order.
    #[must_use]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The installed runtimes, parallel to [`Deployment::ids`].
    #[must_use]
    pub fn runtimes(&self) -> &[Runtime] {
        &self.runtimes
    }

    /// Records the deployment has processed. A program installed mid-stream
    /// ([`Deployment::install`]) has observed only the suffix from its
    /// install on.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// What the installs shared across the programs, derived from the
    /// settled dedup pairs on each call.
    #[must_use]
    pub fn sharing(&self) -> SharingReport {
        let named = |p: usize, q: usize| {
            let query = &self.runtimes[p].compiled().program.queries[q];
            (p, query.name.clone())
        };
        let stores = (self.aliases.iter())
            .map(|((ap, aq), (op, oq))| SharedStore {
                owner: named(*op, *oq),
                alias: named(*ap, *aq),
            })
            .collect();
        SharingReport { stores }
    }

    /// Attach a durable spill tier to every installed program's stores
    /// (off by default; see [`crate::durable`]). Program `id` persists
    /// under the `p<id>_` name component — stable across the index shifts
    /// of install/uninstall — and programs installed later join the durable
    /// tier on arrival. One deployment manifest covers every program.
    /// Uninstall additionally publishes the departing program's final
    /// results as a retired file ([`Deployment::retired`]).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when a spill tier cannot be opened.
    pub fn enable_durability(&mut self, d: Durability) -> Result<(), Error> {
        for (sub, rt) in named(&self.ids, &mut self.runtimes) {
            rt.enable_durability_prefixed(&d, &sub)?;
        }
        self.durability = Some(d);
        Ok(())
    }

    /// Durably checkpoint the whole deployment at the current record
    /// index: every program's stores checkpoint, the single deployment
    /// manifest advances atomically, then every WAL that has outgrown its
    /// segment folds into it (see [`Runtime::persist`]).
    ///
    /// # Errors
    ///
    /// As [`Runtime::persist`].
    pub fn persist(&mut self) -> Result<(), Error> {
        let d = self.durability.as_ref().ok_or(Error::NotDurable)?;
        let mut named = named(&self.ids, &mut self.runtimes);
        crate::durable::persist(d, self.records, &mut self.persisted_at, &mut named)
    }

    /// Read back a retired program's durably published final results.
    /// `Ok(None)` when this id never left under durability.
    ///
    /// # Errors
    ///
    /// [`Error::NotDurable`] unless [`Deployment::enable_durability`] was
    /// called, and as [`read_retired`].
    pub fn retired(&self, id: u64) -> Result<Option<ResultSet>, Error> {
        read_retired(self.durability.as_ref().ok_or(Error::NotDurable)?, id)
    }

    /// Install one more compiled program into the **live** deployment —
    /// the dynamic half of the paper's "queries are installed at run time"
    /// contract (§3.3 prices the SRAM budget precisely so operators can
    /// keep re-deploying queries against it). Returns the program's stable
    /// install id ([`Deployment::uninstall`] takes it back).
    ///
    /// Semantics (pinned by `tests/query_lifecycle.rs`): after the call,
    /// the deployment behaves exactly as if the new program were a fresh
    /// [`Runtime`] started at this instant — it observes only the record
    /// suffix from its install on — while every resident program's state
    /// carries over byte-identically.
    ///
    /// Under a budget ([`MultiRuntime::provisioned`]) the planner re-runs
    /// once over the grown deployment and every resident store
    /// **live-migrates** to its new (smaller) slice
    /// ([`perfq_kvstore::SplitStore::migrate_geometry`] — rehash
    /// cache-resident pairs, spill what no longer fits, timestamps
    /// preserved); without a budget no resident store changes. The new
    /// program searches for owners as every program of a constructor's
    /// list does: it may adopt a resident deduplicated base-rooted store
    /// (equal install epochs only — see `lifecycle_alias_candidates`). A
    /// shared pair is one planner dedup group, so no replan pulls it apart
    /// and there is nothing to repair. Under durability the arrival's
    /// spill tiers attach before anything is committed.
    ///
    /// # Errors
    ///
    /// [`Error::Finished`] after [`MultiRuntime::finish`], [`Error::Plan`]
    /// for whatever the replan rejects, and [`Error::Io`] when the
    /// durable-tier attach fails; the deployment is untouched on error.
    pub fn install(&mut self, program: CompiledProgram) -> Result<u64, Error> {
        if self.finished {
            return Err(Error::Finished);
        }
        let staged = self.stage_install(vec![program])?;
        Ok(self.commit(staged))
    }

    /// Uninstall the program with install id `id`, returning its final
    /// results — exactly what [`Runtime::finish`] + [`Runtime::collect`]
    /// would report for a private runtime stopped now.
    ///
    /// The results are the poll ([`Deployment::poll`]) taken as the
    /// program leaves, before anything moves: `finish()` + `collect()` on a
    /// clone is the poll contract — a departing *alias* reads its owner's
    /// live store through the poll's redirection, a durable store reads
    /// through its spill tier. Under durability they are published next, as
    /// a retired file ([`Deployment::retired`]). Dedup bookkeeping follows:
    /// a departing *owner*'s shared store is **promoted** into its first
    /// surviving alias (the live store moves out of the departing runtime
    /// and the alias rejoins the streaming pass — stream continuity
    /// preserved) and further aliases re-parent onto the promoted owner.
    /// The departing runtime is dropped, and its slice returns to the
    /// pool: under a budget the remaining programs replan and their stores
    /// live-migrate onto the (larger) slices.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownProgram`] for an id that is not installed, and
    /// [`Error::Io`] when the final read (a spill tier that cannot be read)
    /// or the retired-results publish fails. Nothing has moved then: the
    /// program is still installed, with its stores and its sharing, and a
    /// later `uninstall` retries.
    pub fn uninstall(&mut self, id: u64) -> Result<ResultSet, Error> {
        let pos = self.position(id)?;
        let results = self.polled(pos)?;
        // The poll read through the durable tier (a frame replays every
        // spilled pair); publish it so it outlives the deployment.
        if let Some(d) = &self.durability {
            write_retired(d, id, &results)?;
        }

        let mut promoted: Vec<Pair> = Vec::new();
        for i in 0..self.aliases.len() {
            let ((ap, aq), (op, oq)) = self.aliases[i];
            if op != pos || ap == pos {
                continue;
            }
            match promoted.iter().find(|(old, _)| *old == (op, oq)) {
                Some((_, new_owner)) => self.aliases[i].1 = *new_owner,
                None => {
                    let store = self.runtimes[op].take_store(oq);
                    self.runtimes[ap].set_store(aq, store);
                    self.runtimes[ap].set_streaming(aq, true);
                    promoted.push(((op, oq), (ap, aq)));
                }
            }
        }
        drop(self.runtimes.remove(pos));

        // Bookkeeping: drop every pair touching the departing program,
        // shift indices past it down by one.
        self.aliases
            .retain(|((ap, _), (op, _))| *ap != pos && *op != pos);
        for ((ap, _), (op, _)) in &mut self.aliases {
            *ap -= usize::from(*ap > pos);
            *op -= usize::from(*op > pos);
        }
        self.ids.remove(pos);
        self.epochs.remove(pos);

        let mut programs = self.programs();
        self.replan(&mut programs, &self.ids, &self.aliases)
            .expect("surviving slices only grow on uninstall");
        self.migrate(&programs);
        Ok(results)
    }

    /// The program index of install id `id`.
    fn position(&self, id: u64) -> Result<usize, Error> {
        (self.ids.iter().position(|x| *x == id)).ok_or(Error::UnknownProgram(id))
    }

    /// Poll one installed program's current results **without stopping the
    /// world** — the multi-program incremental read path.
    ///
    /// The polled program's frames — and, for each of its deduplicated
    /// alias stores, the owner's — go through the same normalization the
    /// drain uses, so a polled alias equals its never-deduplicated twin;
    /// caches stay resident, ingest continues afterwards, and the eventual
    /// drain is byte-identical to a never-polled replay (pinned by
    /// `tests/poll_equivalence.rs`). The frame is the whole read: a reader
    /// that wants per-epoch deltas or windows builds them from consecutive
    /// frames.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownProgram`] for an id that is not (or no longer)
    /// installed, and [`Error::Io`] when a spill tier the program reads
    /// cannot be read; the deployment is untouched, and a later poll
    /// retries.
    pub fn poll(&mut self, id: u64) -> Result<ResultSet, Error> {
        self.polled(self.position(id)?)
    }

    /// Process one queue record: [`Deployment::process_batch`] over a
    /// one-record batch.
    ///
    /// # Panics
    ///
    /// As [`Deployment::process_batch`].
    pub fn process_record(&mut self, rec: &QueueRecord) {
        self.process_batch(std::slice::from_ref(rec));
    }

    /// Process a batch of records — the multi-query analogue of
    /// [`Runtime::process_batch`], vectorized the same way: the batch is
    /// cut into cache-sized chunks (one `u64` mask word each), each chunk's
    /// rows materialize **once** for every program (the union of the
    /// programs' column masks, reused row buffers), then each program's
    /// plan sweeps the chunk node-at-a-time with its own filters and keys.
    /// Results do not depend on the chunking (and are tested not to);
    /// programs are independent, so per-program stream order — the order
    /// that matters — is preserved.
    ///
    /// # Panics
    ///
    /// Panics (also in release builds) when called after
    /// [`MultiRuntime::finish`], as [`Runtime::process_batch`] does.
    pub fn process_batch(&mut self, recs: &[QueueRecord]) {
        // One walk per batch: the union mask is rebuilt from the resident
        // set (no lifecycle event can leave it stale), and ingest after
        // `finish()` is refused before any record folds.
        let mut mask = 0u64;
        for rt in &self.runtimes {
            assert!(!rt.is_finished(), "{}", Error::Finished);
            mask |= rt.base_cols();
        }
        let runtimes = &mut self.runtimes;
        self.lanes.sweep(recs, mask, |rows, width, n, nows| {
            for rt in runtimes.iter_mut() {
                rt.process_lanes(rows, width, n, nows);
            }
        });
        self.records += recs.len() as u64;
    }

    /// Replay a packet stream through a network straight into every
    /// installed program: **one** shared ingest pass (the network event
    /// loop runs once, records stream in batches), K plan executions.
    pub fn process_network(
        &mut self,
        net: &mut Network,
        packets: impl Iterator<Item = perfq_packet::Packet>,
        batch: usize,
    ) {
        net.run_batched(packets, batch, |chunk| self.process_batch(chunk));
    }

    /// Flush every program's caches (end of measurement window), then
    /// substitute every alias query's (never-updated) store with a clone
    /// of its owner's finished store, so collection reads what a private
    /// store would have held. The deployment takes no more records or
    /// programs afterwards; polls and uninstalls read the drained tables.
    pub fn finish(&mut self) {
        for rt in &mut self.runtimes {
            rt.finish();
        }
        for (alias, owner) in &self.aliases {
            Runtime::adopt_store(&mut self.runtimes, *alias, *owner);
        }
        self.finished = true;
    }

    /// Collect every program's final tables, in program order. Call after
    /// [`MultiRuntime::finish`].
    #[must_use]
    pub fn collect(&self) -> Vec<ResultSet> {
        self.runtimes.iter().map(Runtime::collect).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_query;
    use crate::compiler::CompileOptions;
    use perfq_kvstore::{CacheGeometry, EvictionPolicy, InlineKey};
    use perfq_lang::fig2;
    use perfq_switch::NetworkConfig;
    use perfq_trace::{SyntheticTrace, TraceConfig};
    use proptest::prelude::*;

    const MBIT: u64 = 1024 * 1024;

    fn compiled(src: &str) -> CompiledProgram {
        compile_query(src, &fig2::default_params(), CompileOptions::default()).unwrap()
    }

    /// The strict rule over two programs' freshly built plans.
    fn same(a: &CompiledProgram, ai: usize, b: &CompiledProgram, bi: usize) -> bool {
        let (pa, pb) = (ExecPlan::build(&a.program), ExecPlan::build(&b.program));
        same_store((a, &pa), ai, (b, &pb), bi, true)
    }

    /// A sharing report's `(alias program, owner program)` pairs.
    fn pairs(r: &SharingReport) -> Vec<(usize, usize)> {
        r.stores.iter().map(|s| (s.alias.0, s.owner.0)).collect()
    }

    /// The 5-tuple counter compiled with a 1 024-pair cache, where the
    /// default compiles it with more.
    fn small_counter() -> CompiledProgram {
        let opts = CompileOptions {
            cache_pairs: 1 << 10,
            ..Default::default()
        };
        compile_query("SELECT COUNT GROUPBY 5tuple", &fig2::default_params(), opts).unwrap()
    }

    /// The geometry every store of the inline deployment's program `p` runs.
    fn geometry(multi: &MultiRuntime, p: usize, q: usize) -> CacheGeometry {
        multi.runtimes()[p].compiled().stores[q]
            .as_ref()
            .unwrap()
            .geometry
    }

    #[test]
    fn demand_reports_the_papers_pair_width() {
        let programs = vec![compiled("SELECT COUNT GROUPBY 5tuple")];
        let (_, plan) = MultiRuntime::provisioned(programs, 32 * MBIT).unwrap();
        let stores = &plan.queries[0].stores;
        assert_eq!(stores.len(), 1);
        // §4's 104-bit 5-tuple key; the compiled counter state is a 32-bit
        // integer (the paper's 128-bit figure uses its 24-bit minimum
        // counter width — pinned separately against `area::PAIR_BITS`).
        assert_eq!(stores[0].pair_bits, 104 + 32);
        // A selection demands no SRAM, so there is nothing to plan.
        let selection = vec![compiled("SELECT srcip FROM T")];
        assert!(matches!(
            MultiRuntime::provisioned(selection, 32 * MBIT),
            Err(Error::Plan(PlanError::EmptyDemands))
        ));
    }

    #[test]
    fn provision_rewrites_geometries_within_budget() {
        let programs: Vec<CompiledProgram> = [
            "SELECT COUNT GROUPBY 5tuple",
            "SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip",
        ]
        .iter()
        .map(|s| compiled(s))
        .collect();
        let (multi, plan) = MultiRuntime::provisioned(programs, 8 * MBIT).unwrap();
        assert!(plan.allocated_bits() <= 8 * MBIT);
        for (p, alloc) in plan.queries.iter().enumerate() {
            assert_eq!(geometry(&multi, p, 0), alloc.stores[0].geometry);
            assert_ne!(
                geometry(&multi, p, 0),
                CompileOptions::default().geometry(),
                "provisioning must actually resize the cache"
            );
        }
    }

    #[test]
    fn multi_runtime_matches_sequential_replays() {
        let sources = [
            fig2::PER_FLOW_COUNTERS.source,
            fig2::LATENCY_EWMA.source,
            fig2::TCP_NON_MONOTONIC.source,
        ];
        let mut net = Network::new(NetworkConfig::default());
        let records = net.run_collect(SyntheticTrace::new(TraceConfig::test_small(5)).take(4_000));
        let mut multi = MultiRuntime::new(sources.iter().map(|s| compiled(s)).collect());
        multi.process_batch(&records);
        multi.finish();
        let got = multi.collect();
        for (i, src) in sources.iter().enumerate() {
            let mut rt = Runtime::new(compiled(src));
            for r in &records {
                rt.process_record(r);
            }
            rt.finish();
            assert_eq!(got[i], rt.collect(), "program {i}");
        }
    }

    #[test]
    fn analysis_finds_the_papers_overlap() {
        // The §4 running example + loss rate + both TCP queries: exactly
        // one store dedups (counter vs loss-rate R1).
        let programs = vec![
            compiled("SELECT COUNT GROUPBY 5tuple"),
            compiled(fig2::PER_FLOW_LOSS_RATE.source),
            compiled(fig2::TCP_OUT_OF_SEQUENCE.source),
            compiled(fig2::TCP_NON_MONOTONIC.source),
        ];
        let name = |p: usize| programs[p].program.queries[0].name.clone();
        let (counter, r1) = ((0, name(0)), (1, name(1)));
        let stores = MultiRuntime::new(programs.clone()).sharing().stores.clone();
        assert_eq!(stores.len(), 1, "loss-rate R1 aliases the counter");
        assert_eq!((&stores[0].alias, &stores[0].owner), (&r1, &counter));
    }

    #[test]
    fn different_filters_and_geometries_block_dedup() {
        // Loss-rate R1 vs R2: same store shape, different filter.
        let loss = compiled(fig2::PER_FLOW_LOSS_RATE.source);
        assert!(!same(&loss, 0, &loss, 1));
        // Same query text, different cache geometry: physically different.
        let a = compiled("SELECT COUNT GROUPBY 5tuple");
        let b = small_counter();
        assert!(same(&a, 0, &a, 0));
        assert!(!same(&a, 0, &b, 0));
        assert!(!MultiRuntime::new(vec![a, b]).sharing().any());
    }

    #[test]
    fn dedup_is_byte_identical_and_reported() {
        let programs = vec![
            compiled("SELECT COUNT GROUPBY 5tuple"),
            compiled(fig2::PER_FLOW_LOSS_RATE.source),
        ];
        let mut net = Network::new(NetworkConfig::default());
        let records = net.run_collect(SyntheticTrace::new(TraceConfig::test_small(3)).take(3_000));
        let mut shared = MultiRuntime::new(programs.clone());
        assert_eq!(shared.sharing().stores.len(), 1);
        assert_eq!(shared.sharing().stores[0].alias.1, "R1");
        let mut unshared = MultiRuntime::new_unshared(programs);
        assert!(!unshared.sharing().any());
        shared.process_batch(&records);
        unshared.process_batch(&records);
        shared.finish();
        unshared.finish();
        assert_eq!(shared.collect(), unshared.collect());
    }

    #[test]
    fn composed_duplicates_keep_private_stores() {
        // Two copies of the high-latency program: R2 is a composed GROUPBY
        // over R1's residency-local stream, so it is never shared — not at
        // run time and not in the plan — and R1 feeds R2, so it stays in
        // the streaming pass. The deployment reads like the unshared one.
        let programs = vec![
            compiled(fig2::PER_FLOW_HIGH_LATENCY.source),
            compiled(fig2::PER_FLOW_HIGH_LATENCY.source),
        ];
        let (mut multi, plan) = MultiRuntime::provisioned(programs.clone(), 32 * MBIT).unwrap();
        assert_eq!(plan.deduped_stores(), 0, "no composed dedup group");
        assert!(
            !multi.sharing().stores.iter().any(|s| s.alias.1 == "R2"),
            "composed R2 must keep its private store: {:?}",
            multi.sharing().stores
        );
        // The unshared reference at the provisioned geometries.
        let provisioned = (multi.runtimes().iter())
            .map(|rt| rt.compiled().clone())
            .collect();
        let mut unshared = MultiRuntime::new_unshared(provisioned);
        let mut net = Network::new(NetworkConfig::default());
        let records = net.run_collect(SyntheticTrace::new(TraceConfig::test_small(7)).take(3_000));
        multi.process_batch(&records);
        unshared.process_batch(&records);
        multi.finish();
        unshared.finish();
        assert_eq!(multi.collect(), unshared.collect());
    }

    #[test]
    #[should_panic(expected = "records processed after finish()")]
    fn processing_after_finish_panics_in_every_build() {
        let mut net = Network::new(NetworkConfig::default());
        let records = net.run_collect(SyntheticTrace::new(TraceConfig::test_small(3)).take(200));
        let mut multi = MultiRuntime::new(vec![compiled(fig2::PER_FLOW_COUNTERS.source)]);
        multi.process_batch(&records);
        multi.finish();
        multi.process_batch(&records);
    }

    #[test]
    fn install_after_finish_is_refused_and_reads_stay_the_drain() {
        let mut net = Network::new(NetworkConfig::default());
        let records = net.run_collect(SyntheticTrace::new(TraceConfig::test_small(3)).take(500));
        let mut multi = MultiRuntime::new(vec![compiled("SELECT COUNT GROUPBY 5tuple")]);
        multi.process_batch(&records);
        multi.finish();
        let drained = multi.collect();
        assert!(matches!(
            multi.install(compiled("SELECT COUNT GROUPBY srcip")),
            Err(Error::Finished)
        ));
        assert_eq!(multi.ids(), &[0], "no id burnt, no program admitted");
        assert_eq!(multi.collect(), drained);
        // Reads after the drain return exactly the drained tables.
        assert_eq!(multi.poll(0).unwrap(), drained[0]);
        assert_eq!(multi.uninstall(0).unwrap(), drained[0]);
        assert!(multi.is_empty());
    }

    #[test]
    fn provision_charges_deduplicated_stores_once() {
        // counter + loss rate: 3 demanded stores, but R1 duplicates the
        // counter — the plan charges 2 physical stores and every physical
        // cache grows past its unshared size.
        let programs = vec![
            compiled("SELECT COUNT GROUPBY 5tuple"),
            compiled(fig2::PER_FLOW_LOSS_RATE.source),
        ];
        let (multi, plan) = MultiRuntime::provisioned(programs, 32 * MBIT).unwrap();
        assert_eq!(plan.deduped_stores(), 1);
        assert!(plan.reclaimed_bits() > 0);
        assert!(plan.allocated_bits() <= 32 * MBIT);
        // The counter's geometry equals loss-rate R1's geometry (they are
        // one store), and both exceed what an unshared plan would grant.
        let counter_geom = geometry(&multi, 0, 0);
        assert_eq!(counter_geom, geometry(&multi, 1, 0));
        // Strip the dedup win by planning the counter alone on its share.
        let counter = vec![compiled("SELECT COUNT GROUPBY 5tuple")];
        let (_, solo) = MultiRuntime::provisioned(counter, 16 * MBIT).unwrap();
        assert!(
            counter_geom.capacity() > solo.queries[0].stores[0].geometry.capacity(),
            "reclaimed bits must buy a bigger cache"
        );
    }

    #[test]
    fn differently_compiled_duplicates_share_one_planned_store() {
        // Under a budget the planner sets every geometry, so a compiled
        // cache size is no difference: the pair is one dedup group, charged
        // once, and its one store is as large as an identically compiled
        // pair's.
        let counter = compiled("SELECT COUNT GROUPBY 5tuple");
        let programs = vec![counter.clone(), small_counter()];
        let (multi, plan) = MultiRuntime::provisioned(programs, 32 * MBIT).unwrap();
        assert_eq!(pairs(&multi.sharing()), [(1, 0)]);
        assert_eq!(plan.deduped_stores(), 1, "the shared pair is charged once");
        let (twins, _) =
            MultiRuntime::provisioned(vec![counter.clone(), counter], 32 * MBIT).unwrap();
        assert_eq!(geometry(&multi, 0, 0), geometry(&twins, 0, 0));
        assert_eq!(geometry(&multi, 1, 0), geometry(&twins, 0, 0));
        assert_eq!(geometry(&multi, 0, 0).capacity(), 131_072);
    }

    #[test]
    fn a_deployment_built_at_once_shares_what_installs_share() {
        // Without a budget geometries never change, so the owner search
        // compares them: the small counter is no owner for a default one,
        // and the next default counter is, whichever way the deployment
        // took the programs in.
        let counter = || compiled("SELECT COUNT GROUPBY 5tuple");
        let at_once = MultiRuntime::new(vec![small_counter(), counter(), counter()]);
        let mut by_install = MultiRuntime::new(vec![small_counter(), counter()]);
        by_install.install(counter()).unwrap();
        assert_eq!(pairs(&at_once.sharing()), [(2, 1)]);
        assert_eq!(pairs(&by_install.sharing()), pairs(&at_once.sharing()));
    }

    #[test]
    fn empty_demand_sets_are_errors_not_panics() {
        let programs = vec![compiled("SELECT srcip FROM T")];
        assert!(matches!(
            MultiRuntime::provisioned(programs, 32 * MBIT),
            Err(Error::Plan(PlanError::EmptyDemands))
        ));
    }

    #[test]
    fn install_observes_only_the_suffix() {
        let mut net = Network::new(NetworkConfig::default());
        let records = net.run_collect(SyntheticTrace::new(TraceConfig::test_small(11)).take(4_000));
        let (first, second) = records.split_at(2_000);
        let mut multi = MultiRuntime::new(vec![compiled(fig2::PER_FLOW_COUNTERS.source)]);
        multi.process_batch(first);
        let id = multi.install(compiled(fig2::LATENCY_EWMA.source)).unwrap();
        assert_eq!(id, 1);
        assert_eq!(multi.records(), 2_000);
        multi.process_batch(second);
        multi.finish();
        let got = multi.collect();
        // The resident saw everything; the arrival saw only the suffix.
        let mut rt0 = Runtime::new(compiled(fig2::PER_FLOW_COUNTERS.source));
        rt0.process_batch(&records);
        rt0.finish();
        assert_eq!(got[0], rt0.collect());
        let mut rt1 = Runtime::new(compiled(fig2::LATENCY_EWMA.source));
        rt1.process_batch(second);
        rt1.finish();
        assert_eq!(got[1], rt1.collect());
    }

    #[test]
    fn budgeted_install_shrinks_residents_and_uninstall_regrows_them() {
        let mut net = Network::new(NetworkConfig::default());
        let records = net.run_collect(SyntheticTrace::new(TraceConfig::test_small(13)).take(6_000));
        let (a, rest) = records.split_at(2_000);
        let (b, c) = rest.split_at(2_000);
        let (mut multi, _) =
            MultiRuntime::provisioned(vec![compiled("SELECT COUNT GROUPBY 5tuple")], 8 * MBIT)
                .unwrap();
        let geom_of = |m: &MultiRuntime| {
            m.runtimes()[0].compiled().stores[0]
                .as_ref()
                .unwrap()
                .geometry
        };
        let g_solo = geom_of(&multi);
        multi.process_batch(a);
        let id = multi
            .install(compiled("SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip"))
            .unwrap();
        let g_shared = geom_of(&multi);
        assert!(
            g_shared.capacity() < g_solo.capacity(),
            "the resident's store live-migrated onto a smaller slice"
        );
        multi.process_batch(b);
        let departed = multi.uninstall(id).unwrap();
        assert!(!departed.tables[0].rows.is_empty());
        assert_eq!(
            geom_of(&multi),
            g_solo,
            "the reclaimed slice regrows the survivor"
        );
        multi.process_batch(c);
        multi.finish();
        // The departed program's results: a private runtime provisioned at
        // the same two-program plan, fed exactly the records it observed.
        let progs = vec![
            compiled("SELECT COUNT GROUPBY 5tuple"),
            compiled("SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip"),
        ];
        let (planned, _) = MultiRuntime::provisioned(progs, 8 * MBIT).unwrap();
        let mut reference = Runtime::new(planned.runtimes()[1].compiled().clone());
        reference.process_batch(b);
        reference.finish();
        assert_eq!(departed, reference.collect());
    }

    #[test]
    fn equal_epoch_install_adopts_the_shared_store() {
        let mut net = Network::new(NetworkConfig::default());
        let records = net.run_collect(SyntheticTrace::new(TraceConfig::test_small(17)).take(3_000));
        let (mut multi, _) =
            MultiRuntime::provisioned(vec![compiled("SELECT COUNT GROUPBY 5tuple")], 32 * MBIT)
                .unwrap();
        // Both programs have observed zero records: the arrival's R1 may
        // adopt the resident counter store.
        multi
            .install(compiled(fig2::PER_FLOW_LOSS_RATE.source))
            .unwrap();
        assert_eq!(multi.sharing().stores.len(), 1);
        multi.process_batch(&records);
        multi.finish();
        let got = multi.collect();
        // Byte-identical to the statically-provisioned deployment.
        let (mut all, _) = MultiRuntime::provisioned(
            vec![
                compiled("SELECT COUNT GROUPBY 5tuple"),
                compiled(fig2::PER_FLOW_LOSS_RATE.source),
            ],
            32 * MBIT,
        )
        .unwrap();
        all.process_batch(&records);
        all.finish();
        assert_eq!(got, all.collect());
    }

    /// Sharing is recorded in the deployment, not in the compiled program:
    /// a runtime rebuilt from an alias-bearing program's `compiled()` runs
    /// every query, the alias included, and reads like a fresh compile.
    #[test]
    fn a_shared_programs_compiled_form_runs_standalone() {
        let mut net = Network::new(NetworkConfig::default());
        let records = net.run_collect(SyntheticTrace::new(TraceConfig::test_small(23)).take(2_000));
        let multi = MultiRuntime::new(vec![
            compiled("SELECT COUNT GROUPBY 5tuple"),
            compiled(fig2::PER_FLOW_LOSS_RATE.source),
        ]);
        assert_eq!(pairs(&multi.sharing()), [(1, 0)], "premise: R1 aliases");
        let run = |c: CompiledProgram| {
            let mut rt = Runtime::new(c);
            rt.process_batch(&records);
            rt.finish();
            rt.collect()
        };
        let copied = run(multi.runtimes()[1].compiled().clone());
        let fresh = run(compiled(fig2::PER_FLOW_LOSS_RATE.source));
        assert!(!fresh.tables[0].rows.is_empty(), "R1 counts flows");
        assert_eq!(copied, fresh);
    }

    #[test]
    fn cross_epoch_duplicates_stay_private_and_exact() {
        let mut net = Network::new(NetworkConfig::default());
        let records = net.run_collect(SyntheticTrace::new(TraceConfig::test_small(19)).take(4_000));
        let (head, tail) = records.split_at(1_500);
        let mut multi = MultiRuntime::new(vec![compiled("SELECT COUNT GROUPBY 5tuple")]);
        multi.process_batch(head);
        // The resident counter holds state the arrival never observed:
        // adopting it would hand the new query 1 500 phantom records.
        multi
            .install(compiled(fig2::PER_FLOW_LOSS_RATE.source))
            .unwrap();
        assert!(
            multi.sharing().stores.is_empty(),
            "cross-epoch dedup must not form: {:?}",
            multi.sharing().stores
        );
        multi.process_batch(tail);
        multi.finish();
        let got = multi.collect();
        let mut rt1 = Runtime::new(compiled(fig2::PER_FLOW_LOSS_RATE.source));
        rt1.process_batch(tail);
        rt1.finish();
        assert_eq!(got[1], rt1.collect());
    }

    #[test]
    fn uninstalling_an_owner_promotes_the_alias() {
        let mut net = Network::new(NetworkConfig::default());
        let records = net.run_collect(SyntheticTrace::new(TraceConfig::test_small(29)).take(4_000));
        let (head, tail) = records.split_at(2_000);
        let mut multi = MultiRuntime::new(vec![
            compiled("SELECT COUNT GROUPBY 5tuple"),
            compiled(fig2::PER_FLOW_LOSS_RATE.source),
        ]);
        assert_eq!(multi.sharing().stores.len(), 1, "premise: R1 aliases");
        multi.process_batch(head);
        // Uninstall the owner mid-stream: the alias inherits the live
        // store and the stream continues seamlessly.
        let counter = multi.uninstall(0).unwrap();
        multi.process_batch(tail);
        multi.finish();
        let got = multi.collect();
        // The counter's final results cover only its lifetime.
        let mut rt0 = Runtime::new(compiled("SELECT COUNT GROUPBY 5tuple"));
        rt0.process_batch(head);
        rt0.finish();
        assert_eq!(counter, rt0.collect());
        // The surviving loss-rate program is byte-identical to a private
        // replay of the full stream.
        let mut rt1 = Runtime::new(compiled(fig2::PER_FLOW_LOSS_RATE.source));
        rt1.process_batch(&records);
        rt1.finish();
        assert_eq!(got[0], rt1.collect());
    }

    /// The backing table iterates in arena order (insertion order, with a
    /// removal swapping the last record into the hole); every GROUPBY table
    /// must come out sorted ascending by key words regardless — from
    /// `collect()`, `poll_results()` and `MultiRuntime::poll()` alike.
    #[test]
    fn groupby_tables_stay_sorted_by_key_words_after_removals() {
        use crate::result::{value_key, ResultRow};
        use perfq_lang::ResolvedKind;

        let small = |src: &str| {
            let opts = CompileOptions {
                cache_pairs: 8,
                ways: 2,
                ..Default::default()
            };
            compile_query(src, &fig2::default_params(), opts).unwrap()
        };
        // Remove every third standing record of every store: each removal
        // moves the arena's tail record, scrambling iteration order.
        let punch = |rt: &mut Runtime| {
            for idx in 0..rt.compiled().stores.len() {
                if rt.compiled().stores[idx].is_none() {
                    continue;
                }
                let mut store = rt.take_store(idx);
                let doomed: Vec<InlineKey> = store
                    .backing()
                    .iter()
                    .step_by(3)
                    .map(|(k, _)| k.clone())
                    .collect();
                assert!(!doomed.is_empty(), "the small cache must have evicted");
                for key in &doomed {
                    store.remove_key(key);
                }
                rt.set_store(idx, store);
            }
        };
        let assert_sorted = |set: &ResultSet, program: &CompiledProgram, what: &str| {
            let mut checked = 0;
            for (q, table) in program.program.queries.iter().zip(&set.tables) {
                let ResolvedKind::GroupBy(g) = &q.kind else {
                    continue;
                };
                let key = |row: &ResultRow| -> Vec<i64> {
                    row.values[..g.key_cols.len()]
                        .iter()
                        .map(value_key)
                        .collect()
                };
                assert!(
                    table.rows.windows(2).all(|w| key(&w[0]) < key(&w[1])),
                    "{what}: table {} is not sorted by key words",
                    table.name
                );
                checked += table.rows.len();
            }
            assert!(checked > 100, "{what}: only {checked} GROUPBY rows checked");
        };

        let sources = [
            fig2::PER_FLOW_COUNTERS.source,
            fig2::LATENCY_EWMA.source,
            fig2::TCP_NON_MONOTONIC.source,
        ];
        let mut net = Network::new(NetworkConfig::default());
        let records = net.run_collect(SyntheticTrace::new(TraceConfig::test_small(31)).take(6_000));
        let (head, tail) = records.split_at(3_000);

        let mut multi = MultiRuntime::new(sources.iter().map(|s| small(s)).collect());
        let mut singles: Vec<Runtime> = sources.iter().map(|s| Runtime::new(small(s))).collect();
        for part in [head, tail] {
            multi.process_batch(part);
            multi.runtimes.iter_mut().for_each(punch);
            for rt in &mut singles {
                rt.process_batch(part);
                punch(rt);
                let polled = rt.poll_results().unwrap();
                assert_sorted(&polled, rt.compiled(), "Runtime::poll_results");
            }
            for (p, id) in multi.ids().to_vec().into_iter().enumerate() {
                let polled = multi.poll(id).expect("installed program");
                assert_sorted(
                    &polled,
                    multi.runtimes()[p].compiled(),
                    "MultiRuntime::poll",
                );
            }
        }
        // Drained, the scrambled arenas are in reach: every table must equal
        // the reference — gather its arena, sort by key words — row for row.
        let assert_reference = |set: &ResultSet, rt: &mut Runtime, what: &str| {
            let program = rt.compiled().clone();
            assert_sorted(set, &program, what);
            for (idx, q) in program.program.queries.iter().enumerate() {
                let ResolvedKind::GroupBy(g) = &q.kind else {
                    continue;
                };
                let store = rt.take_store(idx);
                let arena = crate::runtime::backing_rows(store.backing());
                let want = crate::runtime::reference_group_rows(g, &q.schema, arena);
                assert_eq!(set.tables[idx].rows, want, "{what}: table {}", q.name);
            }
        };
        multi.finish();
        let sets = multi.collect();
        for (set, rt) in sets.iter().zip(&mut multi.runtimes) {
            assert_reference(set, rt, "MultiRuntime::collect");
        }
        for rt in &mut singles {
            rt.finish();
            let set = rt.collect();
            assert_reference(&set, rt, "Runtime::collect");
        }
    }

    /// One near miss a generated program may carry: the one difference
    /// that makes it another store than the case's base shape.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Miss {
        Constant,
        KeyOrder,
        Operator,
        CachePairs,
        Policy,
    }

    /// One generated program: the case's store shape, spelled with a
    /// parameter or a literal, with or without an output alias and with or
    /// without the keys listed (reversed) in the SELECT, plus at most one
    /// near miss. Two spellings are the same store exactly when their near
    /// misses are equal.
    #[derive(Debug, Clone, Copy)]
    struct Spelling {
        param: bool,
        alias: bool,
        reorder: bool,
        miss: Option<Miss>,
    }

    /// Base-rooted store shapes: (fold, aliased fold, key columns).
    const SHAPES: [(&str, &str, [&str; 2]); 3] = [
        ("COUNT", "COUNT AS pkts", ["srcip", "dstip"]),
        (
            "SUM(pkt_len)",
            "SUM(pkt_len) AS bytes",
            ["srcip", "dstport"],
        ),
        (
            "COUNT, SUM(pkt_len)",
            "COUNT AS pkts, SUM(pkt_len) AS bytes",
            ["dstip", "srcport"],
        ),
    ];
    const POLICIES: [EvictionPolicy; 3] = [
        EvictionPolicy::Lru,
        EvictionPolicy::Fifo,
        EvictionPolicy::Random { seed: 7 },
    ];

    fn spelling() -> impl Strategy<Value = Spelling> {
        let misses = [
            Miss::Constant,
            Miss::KeyOrder,
            Miss::Operator,
            Miss::CachePairs,
            Miss::Policy,
        ];
        (0u8..2, 0u8..2, 0u8..2, 0usize..10).prop_map(move |(param, alias, reorder, miss)| {
            Spelling {
                param: param == 1,
                alias: alias == 1,
                reorder: reorder == 1,
                miss: misses
                    .get(miss.saturating_sub(5))
                    .copied()
                    .filter(|_| miss >= 5),
            }
        })
    }

    /// Compile one spelling of shape `shape` under `policy` (a policy near
    /// miss takes the next policy instead), at an 8-pair 2-way cache.
    fn spell(shape: usize, s: Spelling, policy: usize) -> CompiledProgram {
        let (fold, aliased, [k1, k2]) = SHAPES[shape];
        let fold = if s.alias { aliased } else { fold };
        let keys = match s.miss {
            Some(Miss::KeyOrder) => format!("{k2}, {k1}"),
            _ => format!("{k1}, {k2}"),
        };
        let select = match s.reorder {
            true => format!("{k2}, {fold}, {k1}"),
            false => fold.to_string(),
        };
        let op = if s.miss == Some(Miss::Operator) {
            "!="
        } else {
            "=="
        };
        let constant = match (s.miss == Some(Miss::Constant), s.param) {
            (false, true) => "TCP",
            (false, false) => "6",
            (true, true) => "UDP",
            (true, false) => "17",
        };
        let src = format!("SELECT {select} GROUPBY {keys} WHERE proto {op} {constant}\n");
        let opts = CompileOptions {
            cache_pairs: if s.miss == Some(Miss::CachePairs) {
                4
            } else {
                8
            },
            ways: 2,
            policy: POLICIES[(policy + usize::from(s.miss == Some(Miss::Policy))) % 3],
            ..Default::default()
        };
        compile_query(&src, &fig2::default_params(), opts).unwrap()
    }

    /// Every program's polls at the two marks (a third and two thirds of
    /// the stream), then its drain.
    fn polls_and_drain(mut plane: MultiRuntime, records: &[QueueRecord]) -> Vec<Vec<ResultSet>> {
        let mut reads = Vec::new();
        for (mark, part) in records.chunks(records.len().div_ceil(3)).enumerate() {
            plane.process_batch(part);
            if mark < 2 {
                let ids = plane.ids().to_vec();
                reads.push(ids.into_iter().map(|id| plane.poll(id).unwrap()).collect());
            }
        }
        plane.finish();
        reads.push(plane.collect());
        reads
    }

    /// What a deployment shares, the store geometries each of its runtimes
    /// runs (program by program), and its polls and drain.
    type Observed = (
        Vec<(usize, usize)>,
        Vec<Vec<CacheGeometry>>,
        Vec<Vec<ResultSet>>,
    );

    /// A deployment of `programs` observed built at once and built as its
    /// first program plus one install per later program.
    fn both_ways(
        programs: &[CompiledProgram],
        build: impl Fn(Vec<CompiledProgram>) -> MultiRuntime,
        records: &[QueueRecord],
    ) -> [Observed; 2] {
        let mut by_installs = build(programs[..1].to_vec());
        for p in &programs[1..] {
            by_installs.install(p.clone()).unwrap();
        }
        [build(programs.to_vec()), by_installs].map(|plane| {
            let stores = |rt: &Runtime| {
                rt.compiled()
                    .stores
                    .iter()
                    .flatten()
                    .map(|s| s.geometry)
                    .collect()
            };
            let geometries = plane.runtimes().iter().map(stores).collect();
            (
                pairs(&plane.sharing()),
                geometries,
                polls_and_drain(plane, records),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The rule attacked through the public deployment: generated
        /// spellings of one store shape, some with a near miss, share
        /// exactly the identical pairs, and sharing never changes a read —
        /// at every eviction policy.
        #[test]
        fn sharing_lists_exactly_the_identical_stores_and_reads_like_private_ones(
            shape in 0usize..3,
            spellings in prop::collection::vec(spelling(), 2..=3),
            seed in 0u64..1_000,
        ) {
            // The first program of each identity owns it; every later one
            // aliases the first (its one store emits nothing).
            let want: Vec<(usize, usize)> = (0..spellings.len())
                .filter_map(|p| {
                    let owner = (0..p).find(|&o| spellings[o].miss == spellings[p].miss)?;
                    Some((p, owner))
                })
                .collect();
            let mut net = Network::new(NetworkConfig::default());
            let records = net.run_collect(SyntheticTrace::new(TraceConfig::test_small(seed)).take(900));
            for policy in 0..POLICIES.len() {
                let programs: Vec<_> = spellings.iter().map(|s| spell(shape, *s, policy)).collect();
                let mut sequential: Vec<Runtime> = programs.iter().cloned().map(Runtime::new).collect();
                let mut want_reads = Vec::new();
                for (mark, part) in records.chunks(records.len().div_ceil(3)).enumerate() {
                    let reads = sequential.iter_mut().map(|rt| {
                        rt.process_batch(part);
                        rt.poll_results().unwrap()
                    });
                    let reads: Vec<ResultSet> = reads.collect();
                    if mark < 2 {
                        want_reads.push(reads);
                    }
                }
                for rt in &mut sequential {
                    rt.finish();
                }
                want_reads.push(sequential.iter().map(Runtime::collect).collect());

                let shared = MultiRuntime::new(programs.clone());
                prop_assert_eq!(pairs(&shared.sharing()), want.clone(), "policy {}", policy);
                let got = polls_and_drain(shared, &records);
                prop_assert!(got == want_reads, "reads differ, policy {}", policy);
                let unshared = polls_and_drain(MultiRuntime::new_unshared(programs.clone()), &records);
                prop_assert!(unshared == want_reads, "unshared reads differ, policy {}", policy);

                // One way in: a deployment built at once and one built by
                // installs share the same pairs, run the same geometries and
                // read the same, with and without a budget (a small one, so
                // the planned caches evict).
                for budget in [None, Some(8 * 1024)] {
                    let build = |ps| match budget {
                        None => MultiRuntime::new(ps),
                        Some(bits) => MultiRuntime::provisioned(ps, bits).unwrap().0,
                    };
                    let [(pairs_a, geoms_a, reads_a), (pairs_b, geoms_b, reads_b)] =
                        both_ways(&programs, build, &records);
                    prop_assert_eq!(pairs_a, pairs_b, "budget {:?}, policy {}", budget, policy);
                    prop_assert_eq!(geoms_a, geoms_b, "budget {:?}, policy {}", budget, policy);
                    prop_assert!(reads_a == reads_b, "reads differ, budget {:?}, policy {}", budget, policy);
                }
            }
        }
    }
}
