//! The multi-query concurrent dataplane under one SRAM area budget.
//!
//! §3.3's hardware argument prices a *fixed* slice of switch SRAM
//! (~32 Mbit, < 2.5 % of a 200 mm² die) that every concurrently-installed
//! query shares. Running one [`Runtime`] per query with an
//! independently-sized cache quietly multiplies that budget by the number of
//! queries; this module closes the gap from both ends:
//!
//! * **Provisioning** ([`provision`]): the kvstore's
//!   [`CachePlanner`] divides a budget in bits across the installed
//!   programs — using the key/state widths each compiled program reports
//!   (`StorePlan::pair_bits`, ultimately `ResolvedProgram::store_widths` in
//!   the language front end) — and the resulting [`AreaPlan`] is written
//!   back into every store's [`CacheGeometry`]. The §4 arithmetic becomes
//!   the geometry the dataplane actually runs.
//! * **Shared ingest** ([`MultiRuntime`]): K installed programs are driven
//!   from **one** replay pass. Each record's base row materializes once,
//!   with the *union* of the programs' pruned column masks, and the row is
//!   dispatched to every program's flat plan — so K concurrent Fig. 2
//!   queries cost one trip through the network event loop and one row
//!   materialization instead of K full replays.
//! * **Cross-query store sharing** (see below): structurally-identical
//!   stores across the installed programs are charged to the budget and
//!   updated **once**. Everything else — filters, key builds, folds — each
//!   program's plan sweeps on its own.
//! * **One lifecycle** (see below): [`MultiRuntime`] (one worker per
//!   program, on the caller) and [`MultiSharded`] (N workers per program,
//!   behind queues; [`ShardedRuntime`](crate::ShardedRuntime) is its K = 1
//!   case) are two front ends over one private core that implements
//!   install, uninstall, replan → migrate → repair, poll source resolution
//!   and the durable tier (enable, persist, recover, retired results)
//!   exactly once.
//!
//! ```text
//!                                            ┌─▶ ExecPlan(program 0) ─▶ stores₀ (slice₀)
//!   packets ─▶ Network ─▶ row (union mask) ──┼─▶ ExecPlan(program 1) ─▶ stores₁ (slice₁)
//!                          (once)            └─▶ ExecPlan(program K) ─▶ storesₖ (sliceₖ)
//!                                                 (own filters and keys; deduped aggregations
//!                                                  skipped, one physical store serves all readers)
//! ```
//!
//! # One lifecycle, two front ends
//!
//! Nothing in the paper's contract — queries "are installed at run time"
//! against one fixed SRAM slice (§3.3), one merge algebra serves every
//! placement of the fold state (§3.2) — distinguishes "K programs on the
//! caller's thread" from "K programs × N worker shards". The module
//! therefore keeps one `Roster`: the installed programs at their
//! whole-slice geometries, their stable ids and install epochs, the
//! budget, the settled dedup pairs, the sharing report. It owns no runtime;
//! every mutating step works on program *p*'s **quiesced worker runtimes in
//! shard order**, which the front end hands over for the duration:
//!
//! ```text
//!   install(program)                         uninstall(id)
//!   ── dry run (nothing mutated) ──          poll the departing program → results
//!   nominate alias candidates  ◀─ gate       promote departing owners' stores
//!   CachePlanner, once                       drop the departing group
//!   worker geometries          ◀─ divisor    re-index bookkeeping
//!   confirm candidates (strict rule)         replan ─▶ migrate ─▶ repair
//!   ── commit ──
//!   snapshot diverged owners ─▶ migrate ─▶ repair ─▶ adopt the arrival
//! ```
//!
//! The plane's shape is one value (`shards: Option<usize>`) read at the two
//! marked points and nowhere else in the core: the **gate** (the sharded
//! plane dedups only across programs that partition exactly and route
//! identically) and the **divisor** (a worker runs its stores at the whole
//! slice, or at `1/N` of it). The rest of the difference lives in the front
//! ends and is not control flow of the lifecycle: how many workers a group
//! has, and that [`MultiSharded`] must pause a group to reach its workers
//! and resume it afterwards (only the groups the dry run says the commit
//! touches — none at all without a budget). Every
//! [`PlanError`] — including a `1/N` slice too small for one pair — and,
//! under durability, a failed spill-tier attach surface from the dry run as
//! an [`InstallError`] with the deployment untouched.
//!
//! # Cross-query sharing
//!
//! The sharing pass runs once at install time ([`MultiRuntime::new`] /
//! [`MultiSharded::new`]) over the compiled programs, in two steps:
//!
//! 1. **Compare** — every pair of candidate stores is held to the one
//!    legality rule, which is also the one notion of identity: the
//!    structural comparison in [`perfq_lang::fingerprint`]
//!    ([`store_equivalent`](perfq_lang::fingerprint::store_equivalent),
//!    over canonical param-folded forms) *and* physical-plan equality. Two
//!    stores may legally collapse into one only when their input chains,
//!    filters, key tuples and fold semantics are identical **and** their
//!    physical configurations match — same [`CacheGeometry`], same eviction
//!    policy, same placement hash seed, with every upstream store in the
//!    chain equally identical (downstream queries observe *cache-resident*
//!    running values, §3.2, so eviction timing is part of a stream's
//!    identity). Under that rule the deduplicated dataplane is
//!    byte-identical to the private-store one for every fold class —
//!    eviction for eviction, epoch for epoch.
//! 2. **Rewrite** — each *alias* aggregation (a duplicate whose rows no
//!    downstream query consumes) is removed from its program's streaming
//!    pass entirely; at [`MultiRuntime::finish`] the owning program's
//!    finished store is substituted back, so collection reads exactly what
//!    a private store would have held. Every other node stays in its
//!    program's plan, which sweeps each chunk with its own filters and
//!    keys.
//!
//! The paper's own query set overlaps this way: the loss-rate program's
//! `R1 = SELECT COUNT GROUPBY 5tuple` *is* the §4 running-example counter
//! query. [`SharingReport`] (from [`MultiRuntime::sharing`]) lists what was
//! shared; under [`provision`] the deduplicated stores are also charged to
//! the SRAM budget **once**, and the reclaimed bits grow every physical
//! cache ([`StoreDemand::dedup`](perfq_kvstore::StoreDemand)).
//!
//! [`MultiSharded`] runs the same discipline across cores: each program
//! runs its own worker group (router, SPSC queues, N worker threads), and
//! under a plan every shard's cache is
//! sized at `1/N` of the program's slice
//! ([`StoreAllocation::shard_geometry`](perfq_kvstore::StoreAllocation::shard_geometry))
//! — total area stays constant as the dataplane scales out, which is what
//! lets the Fig. 5 eviction behaviour carry over to the sharded
//! configuration (`tests/area_sweep.rs`). Store dedup applies there too
//! (worker plans skip alias aggregations; the drain substitutes the owning
//! program's merged store) — gated on both programs' shard partitioning
//! being statically exact ([`ShardSpec::is_exact`](crate::ShardSpec)) *and*
//! routing identically ([`ShardSpec::routes_like`](crate::ShardSpec)), so
//! every worker of the owner sees exactly the records the matching worker
//! of the alias would have seen and the substituted store equals the one
//! the alias would have drained itself, eviction for eviction.
//!
//! Sharing is a **pure optimization**: execution with sharing enabled is
//! byte-identical to [`MultiRuntime::new_unshared`] — and to K independent
//! sequential replays — on every single/batched/1–8-shard configuration
//! (`tests/multi_query_equivalence.rs` pins all of them; the steady state
//! of the batched path still allocates nothing, `tests/alloc_discipline.rs`).

use crate::compiler::{CompiledProgram, StorePlan};
use crate::durable::{read_retired, write_retired, Durability};
use crate::plan::{ExecPlan, CHUNK, LANES};
use crate::result::ResultSet;
use crate::runtime::{LifecycleError, Runtime};
use crate::sharded::{ShardGroup, ShardSpec};
use perfq_kvstore::{
    AreaPlan, CacheGeometry, CachePlanner, PlanError, QueryAllocation, QueryDemand, StoreDemand,
};
use perfq_lang::{fingerprint, QueryInput, Value};
use perfq_switch::{Network, QueueRecord};

/// The cache demand one compiled program places on the SRAM budget: one
/// [`StoreDemand`] per `GROUPBY` store, at the pair width the program's
/// resolved key/state layout implies. `None` for programs without
/// aggregations (pure selections occupy no cache SRAM).
#[must_use]
pub fn demand_of(name: impl Into<String>, compiled: &CompiledProgram) -> Option<QueryDemand> {
    let stores: Vec<StoreDemand> = compiled
        .stores
        .iter()
        .flatten()
        .map(|s| StoreDemand::new(s.pair_bits(), compiled.options.ways))
        .collect();
    (!stores.is_empty()).then(|| QueryDemand::new(name, stores))
}

/// Plan `budget_bits` of cache SRAM across `programs` (equal shares) and
/// rewrite every store's geometry to its allocation. Programs without
/// aggregation stores take no share. Returns the plan (query `i` appears as
/// `"q{i}"`) so callers can inspect slices or derive per-shard geometries.
///
/// Structurally-identical stores across (or within) programs are
/// deduplicated: the sharing analysis tags them into one
/// [`StoreDemand::dedup`] group, the planner charges the group once, and
/// every member program receives the **same** (larger) geometry — the
/// reclaimed bits are redistributed across all physical stores. Execution
/// semantics are unchanged: a member program still runs correctly alone;
/// only a [`MultiRuntime`]/[`MultiSharded`] additionally collapses the
/// duplicate stores into one at run time.
///
/// # Errors
///
/// [`PlanError::EmptyDemands`] when no program has any aggregation store,
/// plus whatever the planner itself rejects
/// ([`perfq_kvstore::CachePlanner::plan`]).
pub fn provision(
    programs: &mut [CompiledProgram],
    budget_bits: u64,
) -> Result<AreaPlan, PlanError> {
    let aliases = analyze_sharing(programs);
    provision_with(programs, budget_bits, &aliases)
}

/// [`provision`] against a caller-supplied (possibly gated) alias list —
/// [`MultiSharded::provisioned`] computes the analysis once,
/// applies the shard-exactness gate, and threads the same result through
/// both the planner and the worker rewrite so the two can never disagree.
///
/// The planner itself tags only aliases whose terminal store reads the
/// **base table**: for those, the plan forces every group member onto the
/// canonical geometry, so the alias provably stays valid after the
/// rewrite. A *composed* duplicate (identical `GROUPBY` chains) is charged
/// conservatively as its own store — its upstream stores may be re-sized
/// differently per program, which would invalidate the alias at run time
/// while the plan had already pocketed its SRAM. Composed duplicates still
/// dedup at run time whenever their provisioned geometries coincide; the
/// area accounting is just never optimistic about it.
fn provision_with(
    programs: &mut [CompiledProgram],
    budget_bits: u64,
    aliases: &[Pair],
) -> Result<AreaPlan, PlanError> {
    let ids: Vec<u64> = (0..programs.len() as u64).collect();
    let (idxs, demands) = lifecycle_demands(programs, &ids, aliases);
    if demands.is_empty() {
        return Err(PlanError::EmptyDemands);
    }
    let plan = CachePlanner::new(budget_bits).plan(&demands)?;
    for (i, alloc) in idxs.iter().zip(&plan.queries) {
        apply_allocation(&mut programs[*i], alloc);
    }
    Ok(plan)
}

/// The planner demand set of the current deployment: one [`QueryDemand`]
/// named `q{id}` per store-bearing program (`ids[i]` is program `i`'s
/// stable install id — the initial install uses `id == i`, so the names
/// match the documented `q{i}` convention), with every **base-rooted**
/// alias pair tagged into a [`StoreDemand::dedup`] group keyed by its
/// owner's coordinates. Returns the covered program indices in demand
/// order alongside, so allocations can be written back positionally.
fn lifecycle_demands(
    programs: &[CompiledProgram],
    ids: &[u64],
    aliases: &[Pair],
) -> (Vec<usize>, Vec<QueryDemand>) {
    // A dedup group is named by its owner's (program, query) coordinates.
    let group_token = |p: usize, q: usize| ((p as u64) << 32) | q as u64;
    let mut groups: Vec<((usize, usize), u64)> = Vec::new();
    for ((ap, aq), (op, oq)) in aliases {
        if !matches!(programs[*ap].program.queries[*aq].input, QueryInput::Base) {
            continue;
        }
        let token = group_token(*op, *oq);
        if !groups.contains(&((*op, *oq), token)) {
            groups.push(((*op, *oq), token));
        }
        groups.push(((*ap, *aq), token));
    }
    let dedup_of = |p: usize, q: usize| {
        groups
            .iter()
            .find(|((gp, gq), _)| *gp == p && *gq == q)
            .map(|(_, t)| *t)
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
                let mut d = StoreDemand::new(sp.pair_bits(), p.options.ways);
                if let Some(g) = dedup_of(i, qi) {
                    d = d.with_dedup(g);
                }
                d
            })
            .collect();
        if !stores.is_empty() {
            idxs.push(i);
            demands.push(QueryDemand::new(format!("q{}", ids[i]), stores));
        }
    }
    (idxs, demands)
}

/// Back-fill the owning query's name into a bare
/// [`PlanError::SliceTooSmall`] (a
/// [`StoreAllocation::shard_geometry`](perfq_kvstore::StoreAllocation::shard_geometry)
/// call does not know its owner).
fn name_slice_error(mut e: PlanError, name: &str) -> PlanError {
    if let PlanError::SliceTooSmall { query, .. } = &mut e {
        *query = name.to_string();
    }
    e
}

/// Write an allocation's geometries into a compiled program's store plans.
fn apply_allocation(compiled: &mut CompiledProgram, alloc: &QueryAllocation) {
    debug_assert!(
        (compiled.stores.iter().flatten().map(StorePlan::pair_bits))
            .eq(alloc.stores.iter().map(|a| a.pair_bits)),
        "allocation order matches"
    );
    set_geometries(compiled, alloc.stores.iter().map(|a| a.geometry));
}

/// Write one geometry per aggregation store, in query order.
fn set_geometries(
    compiled: &mut CompiledProgram,
    geometries: impl IntoIterator<Item = CacheGeometry>,
) {
    let mut geometries = geometries.into_iter();
    for s in compiled.stores.iter_mut().flatten() {
        s.geometry = geometries.next().expect("a geometry per store");
    }
    assert!(
        geometries.next().is_none(),
        "geometries cover exactly the stores"
    );
}

// ---------------------------------------------------------------------------
// Sharing analysis
// ---------------------------------------------------------------------------

/// One store-dedup pair: `(alias (program, query), owner (program, query))`.
/// The owner precedes its aliases in (program, query) order and is never
/// itself an alias.
type Pair = ((usize, usize), (usize, usize));

/// Physical store-plan identity: the non-structural half of the dedup
/// legality rule (the structural half is
/// [`perfq_lang::fingerprint::store_equivalent`]).
///
/// `geometry: false` drops the geometry comparison — the nomination form
/// used by the dynamic lifecycle. A freshly-compiled program carries
/// compile-default geometries while the live deployment carries
/// provisioned ones, so geometry equality at nomination time would reject
/// every candidate the replan is about to *make* equal. The planner forces
/// base-rooted groups onto one geometry; composed candidates are
/// re-checked with the strict [`stores_dedupable`] after the plan lands.
fn phys_eq(a: &StorePlan, b: &StorePlan, geometry: bool) -> bool {
    (!geometry || a.geometry == b.geometry)
        && a.policy == b.policy
        && a.hash_seed == b.hash_seed
        && a.key_bits == b.key_bits
        && a.value_bits == b.value_bits
        && a.ops.dataplane_identical(&b.ops)
}

/// Every store *upstream* of the two queries must also be physically
/// identical: composed queries stream the cache-resident running values
/// (§3.2), so upstream eviction timing shapes the downstream stream.
fn upstream_phys_identical(
    a: &CompiledProgram,
    ai: usize,
    b: &CompiledProgram,
    bi: usize,
    geometry: bool,
) -> bool {
    match (&a.program.queries[ai].input, &b.program.queries[bi].input) {
        (QueryInput::Base, QueryInput::Base) => true,
        (QueryInput::Table(x), QueryInput::Table(y)) => {
            let stores_match = match (&a.stores[*x], &b.stores[*y]) {
                (Some(p), Some(q)) => phys_eq(p, q, geometry),
                (None, None) => true,
                _ => false,
            };
            stores_match && upstream_phys_identical(a, *x, b, *y, geometry)
        }
        _ => false,
    }
}

/// The store-dedup legality check for one candidate pair, with or without
/// the geometry comparison (see [`phys_eq`]).
fn dedupable(
    a: &CompiledProgram,
    ai: usize,
    b: &CompiledProgram,
    bi: usize,
    geometry: bool,
) -> bool {
    let (Some(x), Some(y)) = (&a.stores[ai], &b.stores[bi]) else {
        return false;
    };
    phys_eq(x, y, geometry)
        && upstream_phys_identical(a, ai, b, bi, geometry)
        && fingerprint::store_equivalent(&a.program, ai, &b.program, bi)
}

/// The full (strict) store-dedup legality check for one candidate pair.
fn stores_dedupable(a: &CompiledProgram, ai: usize, b: &CompiledProgram, bi: usize) -> bool {
    dedupable(a, ai, b, bi, true)
}

/// Nominate store-dedup pairs for a freshly-installed program (index
/// `new_idx`, last in `programs`). Exactness of an alias rests on the
/// owner's store holding exactly the state the alias's private store
/// would have held, **from the beginning of the alias's stream** — so on
/// top of the structural/physical rule two lifecycle conditions apply:
///
/// * **equal install epochs** (`epochs`, records-processed at install):
///   the owner must have observed precisely the records the new query
///   will be accountable for. Equal epochs mean the owner's store was
///   empty when the pair forms, and mirrored geometries keep the two
///   hypothetical stores identical from then on.
/// * **freshness**: only the *new* program may take the alias side. Two
///   long-lived programs whose stores drifted through different geometry
///   histories can momentarily look identical; re-aliasing them would
///   erase that history. (Their pairs, if legal, formed when *they* were
///   installed and are carried in the deployment's settled alias list.)
///
/// Candidates are nominated with the relaxed geometry-free rule (see
/// [`phys_eq`]) and must be confirmed with the strict
/// [`stores_dedupable`] against post-plan geometries before any store is
/// elided.
fn lifecycle_alias_candidates(
    programs: &[CompiledProgram],
    epochs: &[u64],
    prev: &[Pair],
    new_idx: usize,
) -> Vec<Pair> {
    let new_plan = ExecPlan::build(&programs[new_idx].program);
    let mut out: Vec<Pair> = Vec::new();
    for (qi, node) in new_plan.nodes.iter().enumerate() {
        if programs[new_idx].stores[qi].is_none() || node.emits {
            continue;
        }
        'owners: for op in 0..=new_idx {
            if epochs[op] != epochs[new_idx] {
                continue;
            }
            // Within the new program itself, only earlier queries may own.
            let limit = if op == new_idx {
                qi
            } else {
                programs[op].stores.len()
            };
            for oq in 0..limit {
                // An owner must not itself be an alias (of any vintage).
                if prev
                    .iter()
                    .chain(out.iter())
                    .any(|((ap, aq), _)| (*ap, *aq) == (op, oq))
                {
                    continue;
                }
                if !dedupable(&programs[new_idx], qi, &programs[op], oq, false) {
                    continue;
                }
                out.push(((new_idx, qi), (op, oq)));
                break 'owners;
            }
        }
    }
    out
}

/// Decide, at install time, which stores of the given program set dedup:
/// the alias pairs. Pure analysis — applying the result to worker
/// programs is the caller's job.
pub(crate) fn analyze_sharing(programs: &[CompiledProgram]) -> Vec<Pair> {
    let plans: Vec<ExecPlan> = programs
        .iter()
        .map(|p| ExecPlan::build(&p.program))
        .collect();

    // First occurrence of each store shape owns it; later structurally +
    // physically identical, *non-emitting* occurrences alias it. (An
    // emitting aggregation feeds downstream queries its per-record running
    // values and cannot leave the streaming pass.)
    let mut aliases = Vec::new();
    let mut owners: Vec<(usize, usize)> = Vec::new();
    for (pi, prog) in programs.iter().enumerate() {
        for (qi, node) in plans[pi].nodes.iter().enumerate() {
            if !node.active || prog.stores[qi].is_none() {
                continue;
            }
            let owner = (owners.iter())
                .find(|(op, oq)| !node.emits && stores_dedupable(prog, qi, &programs[*op], *oq));
            match owner {
                Some(owner) => aliases.push(((pi, qi), *owner)),
                None => owners.push((pi, qi)),
            }
        }
    }

    aliases
}

/// Restrict a sharing analysis to what the **sharded** dataplane can
/// honour. Store dedup requires, on top of the single-stream rule:
///
/// * both programs' partitionings statically exact
///   ([`ShardSpec::is_exact`]; every Fig. 2 program is) — otherwise even a
///   private store's drain is only best-effort and substitution compounds
///   the error;
/// * both programs **routing identically** ([`ShardSpec::routes_like`]) —
///   shard `r` of the owner must see exactly the records shard `r` of the
///   alias would have seen, so the per-worker store states (and their
///   eviction timing, which epoch/overwrite folds observe) coincide.
///   Programs whose primary group keys differ keep their private stores.
fn retain_shard_exact(aliases: &mut Vec<Pair>, programs: &[CompiledProgram]) {
    let specs: Vec<ShardSpec> = programs.iter().map(ShardSpec::from_compiled).collect();
    aliases.retain(|((ap, _), (op, _))| {
        specs[*ap].is_exact() && specs[*op].is_exact() && specs[*ap].routes_like(&specs[*op])
    });
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
/// ([`MultiRuntime::sharing`] / [`MultiSharded::sharing`]).
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

fn report_of(programs: &[CompiledProgram], aliases: &[Pair]) -> SharingReport {
    let named = |p: usize, q: usize| (p, programs[p].program.queries[q].name.clone());
    let stores = aliases
        .iter()
        .map(|((ap, aq), (op, oq))| SharedStore {
            owner: named(*op, *oq),
            alias: named(*ap, *aq),
        })
        .collect();
    SharingReport { stores }
}

/// Substitute every alias query's (never-updated) store with a clone of its
/// owner's finished store, so collection reads what a private store would
/// have held. All runtimes must be finished.
fn substitute_stores(runtimes: &mut [Runtime], aliases: &[Pair]) {
    for ((ap, aq), (op, oq)) in aliases {
        if ap == op {
            runtimes[*ap].adopt_store_within(*aq, *oq);
        } else {
            debug_assert!(op < ap, "owners precede aliases");
            let (left, right) = runtimes.split_at_mut(*ap);
            right[0].adopt_store(*aq, &left[*op], *oq);
        }
    }
}

// ---------------------------------------------------------------------------
// The lifecycle core
// ---------------------------------------------------------------------------

/// Why an `install` was refused. Either way nothing was committed: the
/// resident programs, their stores, ids and sharing are exactly as before
/// the call.
#[derive(Debug)]
pub enum InstallError {
    /// The replan rejected the grown deployment (the budget cannot hold one
    /// more program, or a worker's `1/N` slice cannot hold a single pair).
    Plan(PlanError),
    /// Attaching the arrival's durable spill tier failed. The install id it
    /// would have taken is burnt, so a retry never re-opens half-written
    /// `p<id>_` files.
    Io(std::io::Error),
}

impl From<PlanError> for InstallError {
    fn from(e: PlanError) -> Self {
        InstallError::Plan(e)
    }
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::Plan(e) => write!(f, "install replan rejected: {e}"),
            InstallError::Io(e) => write!(f, "durable-tier attach on install failed: {e}"),
        }
    }
}

impl std::error::Error for InstallError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InstallError::Plan(e) => Some(e),
            InstallError::Io(e) => Some(e),
        }
    }
}

/// Program `p`'s **quiesced** worker runtimes, in shard order — the only
/// form in which the lifecycle core touches a runtime. The inline plane
/// lends each program's runtime as a one-element group; the sharded plane
/// hands over what `ShardGroup::pause` returned, and leaves `None` for a
/// group it kept running (the core reports beforehand which groups
/// it will touch, [`Roster::touched`]).
type Group = Option<Vec<Runtime>>;

fn quiesced(groups: &mut [Group], p: usize) -> &mut Vec<Runtime> {
    groups[p]
        .as_mut()
        .expect("the lifecycle only touches groups it asked to quiesce")
}

/// The plane shape's first consultation point — the candidate gate: the
/// sharded plane keeps only alias pairs whose programs partition exactly
/// and route identically ([`retain_shard_exact`]); the inline plane keeps
/// every pair.
fn gate(shards: Option<usize>, aliases: &mut Vec<Pair>, programs: &[CompiledProgram]) {
    if shards.is_some() {
        retain_shard_exact(aliases, programs);
    }
}

/// The plane shape's second consultation point — the geometry divisor: the
/// geometry each of a program's workers runs its stores at under `alloc`.
/// The inline plane's one worker takes the whole slice; each of a sharded
/// program's `N` workers takes `1/N` of it (constant total area).
fn worker_geometries(
    shards: Option<usize>,
    alloc: &QueryAllocation,
) -> Result<Vec<CacheGeometry>, PlanError> {
    alloc
        .stores
        .iter()
        .map(|s| match shards {
            None => Ok(s.geometry),
            Some(n) => s
                .shard_geometry(n)
                .map_err(|e| name_slice_error(e, &alloc.name)),
        })
        .collect()
}

/// One validated planner run over a program set, not yet applied.
struct Replan {
    /// The program set at its planned whole-slice geometries.
    programs: Vec<CompiledProgram>,
    /// Per store-bearing program: its index and each store's per-worker
    /// geometry ([`worker_geometries`]).
    migrations: Vec<(usize, Vec<CacheGeometry>)>,
    /// Settled alias pairs (indices into [`Roster::aliases`]) whose chains
    /// the planned geometries pull apart.
    broken: Vec<usize>,
}

/// A validated install ([`Roster::stage_install`]); nothing is mutated
/// until [`Roster::commit_install`].
struct StagedInstall {
    /// The grown deployment's replan; `migrations` covers residents only.
    replan: Replan,
    /// The arrival's confirmed alias pairs.
    candidates: Vec<Pair>,
}

/// The lifecycle core both front ends own: which programs are installed
/// under which ids and budget, which stores are deduplicated, where the
/// deployment persists — and the one implementation of install, uninstall,
/// replan → migrate → repair, poll source resolution and the durable tier
/// (enable, persist, recover, retired results) over that bookkeeping.
///
/// The core owns no runtime and starts no thread. [`MultiRuntime`] keeps
/// one [`Runtime`] per program on the caller's thread, [`MultiSharded`]
/// keeps one `ShardGroup` (N workers behind queues) per program; for a
/// lifecycle event or a durable call each hands its runtimes over as
/// [`Group`]s and takes them back afterwards. What the plane's shape
/// changes is exactly: how many workers a group has, whether reaching them
/// needs a pause/resume (the front end's business), and — inside the core
/// — the functions that read `shards`: [`gate`], [`worker_geometries`] and
/// the worker count and file names of [`Roster::spawn`] /
/// [`Roster::file_component`].
#[derive(Debug)]
struct Roster {
    /// The installed programs at their **whole-slice** geometries, in
    /// program order (worker runtimes carry the per-worker geometries).
    /// Lifecycle analysis and replanning run at this level.
    programs: Vec<CompiledProgram>,
    /// Settled store-dedup pairs; substitutions apply on drain.
    aliases: Vec<Pair>,
    /// What the sharing pass found.
    report: SharingReport,
    /// Stable install ids, parallel to `programs` — program indices shift
    /// on uninstall, ids never do.
    ids: Vec<u64>,
    /// Next install id to hand out.
    next_id: u64,
    /// Deployment record count at each program's install — the store-dedup
    /// epoch gate ([`lifecycle_alias_candidates`]).
    epochs: Vec<u64>,
    /// The SRAM budget the deployment was provisioned under, if any;
    /// lifecycle events replan it.
    budget: Option<u64>,
    /// Records the deployment has processed (programs installed later have
    /// seen only a suffix).
    records: u64,
    /// Whether the cross-query sharing pass is enabled.
    share: bool,
    /// The plane's shape: `None` for the inline plane (one worker per
    /// program, on the caller), `Some(N)` for N worker shards per program.
    shards: Option<usize>,
    /// Durable-tier configuration ([`Roster::enable_durability`]); the
    /// roster holds the single deployment manifest, and programs installed
    /// later join the tier on arrival.
    durability: Option<Durability>,
    /// Record index of the last manifested checkpoint (stale-capture
    /// cleanup; see [`Runtime`]'s field of the same name).
    persisted_at: Option<u64>,
}

impl Roster {
    /// The constructors' shared half: run (and gate) the sharing pass over
    /// the initial program set.
    fn new(programs: Vec<CompiledProgram>, share: bool, shards: Option<usize>) -> Self {
        assert!(!programs.is_empty(), "need at least one program");
        let mut aliases = Vec::new();
        if share {
            aliases = analyze_sharing(&programs);
            gate(shards, &mut aliases, &programs);
        }
        let n = programs.len();
        let mut roster = Roster {
            programs,
            aliases,
            report: SharingReport::default(),
            ids: (0..n as u64).collect(),
            next_id: n as u64,
            epochs: vec![0; n],
            budget: None,
            records: 0,
            share,
            shards,
            durability: None,
            persisted_at: None,
        };
        roster.refresh_report();
        roster
    }

    /// [`Roster::new`] under a shared SRAM budget. One (gated) sharing
    /// analysis tags the dedup groups the planner charges once
    /// ([`provision_with`]); the analysis then re-runs at the provisioned
    /// geometries, so no store is elided unless the strict rule holds at
    /// the geometries the dataplane actually runs. Returns each program's
    /// per-worker program ([`worker_geometries`]) and the plan alongside.
    fn provisioned(
        mut programs: Vec<CompiledProgram>,
        budget_bits: u64,
        shards: Option<usize>,
    ) -> Result<(Self, Vec<CompiledProgram>, AreaPlan), PlanError> {
        let mut aliases = analyze_sharing(&programs);
        gate(shards, &mut aliases, &programs);
        let plan = provision_with(&mut programs, budget_bits, &aliases)?;
        let mut roster = Roster::new(programs, true, shards);
        roster.budget = Some(budget_bits);
        // `provision_with` named the i-th program's demand `q{i}`; look the
        // allocation up **by name** — programs without stores place no
        // demand, so positional iteration would misalign every later
        // program's geometry with its neighbour's.
        let mut workers = roster.worker_programs();
        for (i, worker) in workers.iter_mut().enumerate() {
            if let Some(alloc) = plan.query(&format!("q{i}")) {
                set_geometries(worker, worker_geometries(shards, alloc)?);
            }
        }
        Ok((roster, workers, plan))
    }

    /// The program each installed program's workers start from: its
    /// whole-slice program with every alias query marked as externally
    /// provided ([`CompiledProgram::deduped_queries`]), so the worker
    /// runtime leaves it out of its streaming pass.
    fn worker_programs(&self) -> Vec<CompiledProgram> {
        let mut workers = self.programs.clone();
        for ((ap, aq), _) in &self.aliases {
            workers[*ap].deduped_queries.push(*aq);
        }
        workers
    }

    /// Program index of install id `id`, if it is live.
    fn position(&self, id: u64) -> Option<usize> {
        self.ids.iter().position(|x| *x == id)
    }

    /// Fresh worker runtimes for one program: one on the inline plane, one
    /// per shard on the sharded one.
    fn spawn(&self, worker: &CompiledProgram) -> Vec<Runtime> {
        let n = self.shards.unwrap_or(1);
        (0..n).map(|_| Runtime::new(worker.clone())).collect()
    }

    /// The durable file-name component of install id `id`'s worker `shard`:
    /// `p<id>_` on the inline plane, `p<id>_s<shard>_` on the sharded one —
    /// stable across the index shifts of install/uninstall.
    fn file_component(&self, id: u64, shard: usize) -> String {
        match self.shards {
            None => format!("p{id}_"),
            Some(_) => format!("p{id}_s{shard}_"),
        }
    }

    /// Every quiesced worker with its durable file-name component, program
    /// by program, in shard order.
    fn named<'g>(&self, groups: &'g mut [Group]) -> Vec<(String, &'g mut Runtime)> {
        let mut named = Vec::new();
        for (id, group) in self.ids.iter().zip(groups) {
            let workers = group.as_mut().expect("durable calls quiesce every group");
            let component = |(shard, rt)| (self.file_component(*id, shard), rt);
            named.extend(workers.iter_mut().enumerate().map(component));
        }
        named
    }

    /// Attach a durable spill tier to every store of every quiesced worker
    /// (see [`crate::durable`]).
    fn enable_durability(&mut self, d: Durability, groups: &mut [Group]) -> std::io::Result<()> {
        for (sub, rt) in self.named(groups) {
            rt.enable_durability_prefixed(&d, &sub)?;
        }
        self.durability = Some(d);
        Ok(())
    }

    /// Durably checkpoint every quiesced worker at the deployment's record
    /// index and advance the single manifest ([`crate::durable::persist`]).
    ///
    /// # Panics
    ///
    /// Panics unless [`Roster::enable_durability`] succeeded.
    fn persist(&mut self, groups: &mut [Group]) -> std::io::Result<()> {
        let mut workers = self.named(groups);
        let d = (self.durability.as_ref()).expect("persist requires enable_durability");
        crate::durable::persist(d, self.records, &mut self.persisted_at, &mut workers)
    }

    /// Repair the freshly rebuilt deployment's quiesced workers against the
    /// manifest and return the resume index. The checkpointed record count
    /// lands on each program's first worker — where [`Runtime::recover`]
    /// keeps it — so a drain after re-ingest covers the whole stream.
    fn recover(&mut self, d: Durability, groups: &mut [Group]) -> std::io::Result<u64> {
        let resume = crate::durable::recover(&d, &mut self.named(groups))?;
        let at = resume.unwrap_or(0);
        for workers in groups.iter_mut().flatten() {
            workers[0].resume_records(at);
        }
        self.records = at;
        self.persisted_at = resume;
        self.durability = Some(d);
        Ok(at)
    }

    /// A retired program's durably published final results; `Ok(None)`
    /// when `id` never left under durability, an
    /// [`std::io::ErrorKind::InvalidData`] error when its file is corrupt.
    ///
    /// # Panics
    ///
    /// Panics unless [`Roster::enable_durability`] succeeded.
    fn retired(&self, id: u64) -> std::io::Result<Option<ResultSet>> {
        let d = (self.durability.as_ref()).expect("retired requires enable_durability");
        read_retired(d, id)
    }

    /// Rebuild the sharing report over the current programs and settled
    /// aliases.
    fn refresh_report(&mut self) {
        self.report = report_of(&self.programs, &self.aliases);
    }

    /// Run the planner **once** over `programs` (named by `ids`, dedup
    /// groups from `aliases`) under the deployment's budget: whole-slice
    /// geometries written into `programs`, per-worker geometries resolved,
    /// diverging settled pairs detected — every [`PlanError`] surfaces
    /// here, before anything live is touched. Without a budget (or without
    /// any store) geometries never change and the replan is empty.
    fn replan(
        &self,
        programs: Vec<CompiledProgram>,
        ids: &[u64],
        aliases: &[Pair],
    ) -> Result<Replan, PlanError> {
        let mut replan = Replan {
            programs,
            migrations: Vec::new(),
            broken: Vec::new(),
        };
        let Some(budget) = self.budget else {
            return Ok(replan);
        };
        let (idxs, demands) = lifecycle_demands(&replan.programs, ids, aliases);
        if demands.is_empty() {
            return Ok(replan);
        }
        let plan = CachePlanner::new(budget).plan(&demands)?;
        for (pi, alloc) in idxs.into_iter().zip(&plan.queries) {
            apply_allocation(&mut replan.programs[pi], alloc);
            replan
                .migrations
                .push((pi, worker_geometries(self.shards, alloc)?));
        }
        replan.broken = (0..self.aliases.len())
            .filter(|&i| {
                let ((ap, aq), (op, oq)) = self.aliases[i];
                !stores_dedupable(&replan.programs[ap], aq, &replan.programs[op], oq)
            })
            .collect();
        Ok(replan)
    }

    /// Apply a validated replan to the quiesced groups: every store
    /// live-migrates to its planned per-worker geometry, and every composed
    /// alias pair the new geometries diverge is **repaired** (privatized) —
    /// the shared store's pre-migration state, exactly what the alias's
    /// private store would hold, is cloned worker by worker, migrated to
    /// the alias's new geometry, and handed to the reactivated alias query.
    fn apply(&mut self, replan: Replan, groups: &mut [Group]) {
        // Snapshot diverging pairs' owners *before* any migration.
        let repairs: Vec<_> = replan
            .broken
            .iter()
            .map(|&i| {
                let (_, (op, oq)) = self.aliases[i];
                let snaps: Vec<_> = quiesced(groups, op)
                    .iter()
                    .map(|w| w.clone_store(oq))
                    .collect();
                (i, snaps)
            })
            .collect();
        // Live-migrate every resident store (dormant alias stores too —
        // their compiled geometries must track the plan).
        for (pi, geoms) in &replan.migrations {
            for w in quiesced(groups, *pi).iter_mut() {
                let mut it = geoms.iter();
                for (qi, store) in replan.programs[*pi].stores.iter().enumerate() {
                    if store.is_some() {
                        w.migrate_store(qi, *it.next().expect("a geometry per store"));
                    }
                }
            }
        }
        // Materialize the repairs at each worker's new private geometry.
        for (i, snaps) in repairs.into_iter().rev() {
            let ((ap, aq), _) = self.aliases.remove(i);
            for (w, mut snap) in quiesced(groups, ap).iter_mut().zip(snaps) {
                let geom = w.compiled().stores[aq]
                    .as_ref()
                    .expect("alias stores exist")
                    .geometry;
                snap.migrate_geometry(geom);
                w.set_store(aq, snap);
                w.reactivate_query(aq);
            }
        }
        self.programs = replan.programs;
    }

    /// The dry run of an install: nominate the arrival's alias candidates
    /// (gated by the plane's shape), replan the grown deployment, confirm
    /// the candidates at the planned geometries, and build the arrival's
    /// worker runtimes — under durability with their spill tiers attached.
    /// Nothing is mutated, so an `Err` leaves the deployment untouched; a
    /// failed attach only burns the install id it would have taken, so a
    /// retry never re-opens half-written files.
    fn stage_install(
        &mut self,
        program: CompiledProgram,
    ) -> Result<(StagedInstall, Vec<Runtime>), InstallError> {
        let new_idx = self.programs.len();
        let mut programs = self.programs.clone();
        programs.push(program);
        let mut epochs = self.epochs.clone();
        epochs.push(self.records);
        let mut candidates = Vec::new();
        if self.share {
            candidates = lifecycle_alias_candidates(&programs, &epochs, &self.aliases, new_idx);
            gate(self.shards, &mut candidates, &programs);
        }

        // Candidate pairs are kept only when the strict dedup rule holds at
        // the geometries the plan installs. The demand set is identical
        // with or without the candidates dropped below (only base-rooted
        // pairs are planner-tagged, and those always confirm — the planner
        // mirrors the group geometry), so this one plan is the one to
        // commit.
        let mut ids = self.ids.clone();
        ids.push(self.next_id);
        let combined: Vec<Pair> = self.aliases.iter().chain(&candidates).copied().collect();
        let mut replan = self.replan(programs, &ids, &combined)?;
        candidates.retain(|((ap, aq), (op, oq))| {
            stores_dedupable(&replan.programs[*ap], *aq, &replan.programs[*op], *oq)
        });

        // The arrival starts at its planned per-worker geometries with its
        // alias queries out of the streaming pass; the residents migrate to
        // theirs at commit.
        let mut worker = replan.programs[new_idx].clone();
        for ((ap, aq), _) in &candidates {
            debug_assert_eq!(*ap, new_idx, "only the new program takes the alias side");
            worker.deduped_queries.push(*aq);
        }
        if let Some(at) = replan.migrations.iter().position(|(pi, _)| *pi == new_idx) {
            set_geometries(&mut worker, replan.migrations.remove(at).1);
        }
        let mut arrival = self.spawn(&worker);
        if let Some(d) = &self.durability {
            for (shard, rt) in arrival.iter_mut().enumerate() {
                let sub = self.file_component(self.next_id, shard);
                if let Err(e) = rt.enable_durability_prefixed(d, &sub) {
                    self.next_id += 1;
                    return Err(InstallError::Io(e));
                }
            }
        }
        Ok((StagedInstall { replan, candidates }, arrival))
    }

    /// Which resident groups committing `staged` touches — the ones whose
    /// stores migrate or that own or alias a diverged pair. An install
    /// under no budget touches none.
    fn touched(&self, staged: &StagedInstall) -> Vec<bool> {
        let mut need = vec![false; self.programs.len()];
        for (pi, _) in &staged.replan.migrations {
            need[*pi] = true;
        }
        for i in &staged.replan.broken {
            let ((ap, _), (op, _)) = self.aliases[*i];
            need[ap] = true;
            need[op] = true;
        }
        need
    }

    /// Commit a staged install over the touched residents' quiesced groups
    /// and adopt the arrival under a fresh install id (returned). The front
    /// end starts the worker runtimes [`Roster::stage_install`] handed it.
    fn commit_install(&mut self, staged: StagedInstall, groups: &mut [Group]) -> u64 {
        self.apply(staged.replan, groups);
        self.aliases.extend(staged.candidates);
        let id = self.next_id;
        self.next_id += 1;
        self.ids.push(id);
        self.epochs.push(self.records);
        self.refresh_report();
        id
    }

    /// Uninstall program `pos` from the (entirely quiesced) deployment and
    /// return its final results; its group leaves `groups`.
    ///
    /// The final results are a **poll** ([`Roster::poll`]) taken before
    /// anything moves: `finish()` + `collect()` on a clone is the poll
    /// contract on every plane — a departing alias reads its owner's (still
    /// running) store through the same redirection, a durable store reads
    /// through its spill tier. A departing *owner*'s shared store is then
    /// **promoted** worker by worker into its first surviving alias (dedup
    /// implies identical routing, so worker `w`'s states are
    /// interchangeable; the live state moves — stream continuity preserved)
    /// and further aliases re-parent onto the promoted owner. The departing
    /// group is dropped, and under a budget the remaining programs replan
    /// onto the reclaimed area, live-migrate and repair. Under durability
    /// the final
    /// results are published as the departing id's retired file.
    ///
    /// # Panics
    ///
    /// Under durability, panics when publishing the retired results fails
    /// (uninstall has no error channel yet).
    fn uninstall(&mut self, pos: usize, groups: &mut Vec<Group>) -> ResultSet {
        let id = self.ids[pos];
        let results = self.poll(pos, |p| {
            groups[p]
                .as_deref()
                .expect("uninstall quiesces every group")
        });

        let mut promoted: Vec<Pair> = Vec::new();
        for i in 0..self.aliases.len() {
            let ((ap, aq), (op, oq)) = self.aliases[i];
            if op != pos || ap == pos {
                continue;
            }
            match promoted.iter().find(|(old, _)| *old == (op, oq)) {
                Some((_, new_owner)) => self.aliases[i].1 = *new_owner,
                None => {
                    let stores: Vec<_> = quiesced(groups, op)
                        .iter()
                        .map(|w| w.clone_store(oq))
                        .collect();
                    for (w, store) in quiesced(groups, ap).iter_mut().zip(stores) {
                        w.set_store(aq, store);
                        w.reactivate_query(aq);
                    }
                    promoted.push(((op, oq), (ap, aq)));
                }
            }
        }
        drop(groups.remove(pos));

        // Bookkeeping: drop every pair touching the departing program,
        // shift indices past it down by one.
        self.aliases
            .retain(|((ap, _), (op, _))| *ap != pos && *op != pos);
        for ((ap, _), (op, _)) in &mut self.aliases {
            if *ap > pos {
                *ap -= 1;
            }
            if *op > pos {
                *op -= 1;
            }
        }
        self.ids.remove(pos);
        self.epochs.remove(pos);
        self.programs.remove(pos);

        let remaining = std::mem::take(&mut self.programs); // `apply` puts them back
        let replan = self
            .replan(remaining, &self.ids, &self.aliases)
            .expect("surviving slices only grow on uninstall");
        self.apply(replan, groups);
        self.refresh_report();
        // The poll read through the durable tier (a frame replays every
        // spilled pair); publish it so it outlives the deployment.
        if let Some(d) = &self.durability {
            write_retired(d, id, &results).expect("retired-results publish");
        }
        results
    }

    /// The `(program, query)` whose live store holds each of program
    /// `pos`'s queries' truth at a poll — the query itself, or the owner a
    /// deduplicated alias redirects to (the same redirection the drain
    /// applies via [`substitute_stores`], read-only here); `None` for
    /// storeless queries.
    fn poll_sources(&self, pos: usize) -> Vec<Option<(usize, usize)>> {
        let mut sources: Vec<_> = self.programs[pos]
            .stores
            .iter()
            .enumerate()
            .map(|(q, store)| store.as_ref().map(|_| (pos, q)))
            .collect();
        for ((ap, aq), owner) in &self.aliases {
            if *ap == pos {
                sources[*aq] = Some(*owner);
            }
        }
        sources
    }

    /// Poll program `pos` over the (read-only) worker runtimes
    /// `workers_of(p)` lends for every program [`Roster::poll_sources`]
    /// names: per-worker frames merge through the same normalization the
    /// drain uses.
    fn poll<'a>(&self, pos: usize, workers_of: impl Fn(usize) -> &'a [Runtime]) -> ResultSet {
        let stores: Vec<_> = (self.poll_sources(pos).into_iter())
            .map(|src| src.map(|(p, q)| (workers_of(p), q)))
            .collect();
        crate::runtime::poll_collect(workers_of(pos), &stores)
    }
}

/// K installed programs behind one shared ingest pass. Usage mirrors
/// [`Runtime`]; every entry point is semantically K independent runtimes
/// fed the same records, and is pinned byte-identical to exactly that.
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
#[derive(Debug)]
pub struct MultiRuntime {
    /// One runtime per installed program, on the caller's thread.
    runtimes: Vec<Runtime>,
    /// Who is installed, and the one lifecycle over them.
    roster: Roster,
    /// Chunk-wide row buffers ([`MultiRuntime::process_batch`]): one
    /// [`LANES`]-record chunk materializes at a time, then each program
    /// sweeps it node-at-a-time — a program's stores and bytecode state
    /// stay hot across the chunk instead of being evicted K−1 times per
    /// record. Flat lane matrix: lane `i` at `i * row_width ..` (one
    /// allocation, no per-lane `Vec` headers in the sweeps).
    rows: Vec<Value>,
    /// Observation times of the current chunk, parallel to `rows`.
    nows: Vec<perfq_packet::Nanos>,
}

impl MultiRuntime {
    /// Install several compiled programs behind one ingest pass, with
    /// whatever geometries they already carry and cross-query sharing
    /// enabled (see the module docs; sharing is a pure optimization, pinned
    /// byte-identical to [`MultiRuntime::new_unshared`]).
    ///
    /// # Panics
    ///
    /// Panics on an empty program list.
    #[must_use]
    pub fn new(programs: Vec<CompiledProgram>) -> Self {
        Self::with_sharing(programs, true)
    }

    /// [`MultiRuntime::new`] without the cross-query sharing pass — the
    /// PR 4 shared-ingest-only configuration. Differential tests and the
    /// `multi_query_shared` ratio guards use this as the sharing baseline.
    #[doc(hidden)]
    #[must_use]
    pub fn new_unshared(programs: Vec<CompiledProgram>) -> Self {
        Self::with_sharing(programs, false)
    }

    fn with_sharing(programs: Vec<CompiledProgram>, share: bool) -> Self {
        let roster = Roster::new(programs, share, None);
        let workers = roster.worker_programs();
        Self::build(roster, workers)
    }

    /// Start one runtime per worker program.
    fn build(roster: Roster, workers: Vec<CompiledProgram>) -> Self {
        MultiRuntime {
            runtimes: workers.into_iter().map(Runtime::new).collect(),
            roster,
            rows: Vec::new(),
            nows: Vec::new(),
        }
    }

    /// Install programs under a shared SRAM budget: [`provision`] the
    /// geometries first, then build the runtime. Returns the plan alongside.
    pub fn provisioned(
        programs: Vec<CompiledProgram>,
        budget_bits: u64,
    ) -> Result<(Self, AreaPlan), PlanError> {
        let (roster, workers, plan) = Roster::provisioned(programs, budget_bits, None)?;
        Ok((Self::build(roster, workers), plan))
    }

    /// Number of installed programs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runtimes.len()
    }

    /// True when no program is installed (only possible after
    /// [`MultiRuntime::uninstall`] removed the last one).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runtimes.is_empty()
    }

    /// The installed runtimes, in program order.
    #[must_use]
    pub fn runtimes(&self) -> &[Runtime] {
        &self.runtimes
    }

    /// The stable install ids, parallel to [`MultiRuntime::runtimes`].
    #[must_use]
    pub fn ids(&self) -> &[u64] {
        &self.roster.ids
    }

    /// What the install-time sharing pass shared across the programs.
    #[must_use]
    pub fn sharing(&self) -> &SharingReport {
        &self.roster.report
    }

    /// Records the deployment has processed. A program installed mid-stream
    /// ([`MultiRuntime::install`]) has observed only the suffix from its
    /// install on.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.roster.records
    }

    /// Attach a durable spill tier to every installed program's stores
    /// (off by default; see [`crate::durable`]). Program `id` persists
    /// under the `p<id>_` name component — stable across the index shifts
    /// of install/uninstall — and programs installed later
    /// ([`MultiRuntime::install`]) join the durable tier on arrival.
    /// Uninstall additionally publishes the departing program's final
    /// results as a retired file ([`MultiRuntime::retired`]). The sharded
    /// planes take the same tier: [`MultiSharded::enable_durability`], and
    /// [`ShardedRuntime::enable_durability`](crate::ShardedRuntime::enable_durability)
    /// for one program.
    pub fn enable_durability(&mut self, d: Durability) -> std::io::Result<()> {
        self.lent(|roster, groups| roster.enable_durability(d, groups))
    }

    /// Durably checkpoint the whole deployment at the current record
    /// index: every program's stores checkpoint, the single deployment
    /// manifest advances atomically, then every WAL that has outgrown its
    /// segment folds into it (see [`Runtime::persist`]).
    ///
    /// # Panics
    ///
    /// Panics unless [`MultiRuntime::enable_durability`] was called.
    pub fn persist(&mut self) -> std::io::Result<()> {
        self.lent(|roster, groups| roster.persist(groups))
    }

    /// Recover a crashed multi-query deployment that had **no mid-stream
    /// lifecycle events**: rebuild over the same program list (the sharing
    /// analysis is deterministic, so aliases, store layout, and durable
    /// file names all reproduce) and repair each program's files against
    /// the single deployment manifest. Returns the plane with the resume
    /// index (see [`Runtime::recover`]); every program's record count
    /// includes the checkpointed prefix. Deployments that installed or
    /// uninstalled mid-stream are out of recovery's scope — but their
    /// retired files stay readable ([`MultiRuntime::retired`]).
    pub fn recover(
        programs: Vec<CompiledProgram>,
        d: Durability,
    ) -> std::io::Result<(Self, u64)> {
        let mut multi = Self::new(programs);
        let at = multi.lent(|roster, groups| roster.recover(d, groups))?;
        Ok((multi, at))
    }

    /// Read back a retired program's durably published final results.
    /// `Ok(None)` when this id never left under durability; an
    /// [`std::io::ErrorKind::InvalidData`] error when its file is corrupt.
    ///
    /// # Panics
    ///
    /// Panics unless [`MultiRuntime::enable_durability`] was called.
    pub fn retired(&self, id: u64) -> std::io::Result<Option<ResultSet>> {
        self.roster.retired(id)
    }

    /// Lend every program's runtime to the roster as a one-worker quiesced
    /// group (nothing runs between two calls on this plane) for the
    /// duration of `f`, and take them back whatever it returns.
    fn lent<R>(&mut self, f: impl FnOnce(&mut Roster, &mut Vec<Group>) -> R) -> R {
        let runtimes = std::mem::take(&mut self.runtimes);
        let mut groups = runtimes.into_iter().map(|rt| Some(vec![rt])).collect();
        let out = f(&mut self.roster, &mut groups);
        self.runtimes = groups.into_iter().flatten().flatten().collect();
        out
    }

    /// Install one more compiled program into the **live** deployment —
    /// the dynamic half of the paper's "queries are installed at run time"
    /// contract (§3.3 prices the SRAM budget precisely so operators can
    /// keep re-deploying queries against it). Returns the program's stable
    /// install id ([`MultiRuntime::uninstall`] takes it back).
    ///
    /// Semantics (pinned by `tests/query_lifecycle.rs`): after the call,
    /// the deployment behaves exactly as if the new program were a fresh
    /// [`Runtime`] started at this instant — it observes only the record
    /// suffix from its install on — while every resident program's state
    /// carries over byte-identically.
    ///
    /// Under a budget ([`MultiRuntime::provisioned`]) the planner re-runs
    /// once over the grown deployment and every resident store
    /// **live-migrates** to its new (smaller) slice without stopping ingest
    /// ([`perfq_kvstore::SplitStore::migrate_geometry`] — rehash
    /// cache-resident pairs, spill what no longer fits, timestamps
    /// preserved). The sharing analysis re-runs incrementally: the new
    /// program may adopt a resident deduplicated store (equal install
    /// epochs only — see `lifecycle_alias_candidates`); a live composed
    /// alias pair whose chains
    /// the replan diverges is **repaired** — the shared store's state is
    /// cloned into the alias as its private store again. Under durability
    /// the arrival's spill tiers attach (`p<id>_` files) before anything is
    /// committed.
    ///
    /// # Errors
    ///
    /// [`InstallError::Plan`] for whatever the replan rejects,
    /// [`InstallError::Io`] when the durable-tier attach fails; the
    /// deployment is untouched on error.
    pub fn install(&mut self, program: CompiledProgram) -> Result<u64, InstallError> {
        let (staged, arrival) = self.roster.stage_install(program)?;
        let id = self.lent(|roster, groups| roster.commit_install(staged, groups));
        self.runtimes.extend(arrival);
        Ok(id)
    }

    /// Uninstall the program with install id `id`, returning its final
    /// results — exactly what [`Runtime::finish`] + [`Runtime::collect`]
    /// would report for a private runtime stopped now. `None` for an
    /// unknown id.
    ///
    /// The departing program's slice returns to the pool: under a budget
    /// the remaining programs replan and their stores live-migrate onto the
    /// (larger) slices. The results are the poll ([`MultiRuntime::poll`])
    /// taken as the program leaves — a departing *alias* reads its owner's
    /// live store through the poll's redirection — and dedup bookkeeping is
    /// repaired: a departing *owner*'s shared store is **promoted** into
    /// its first surviving alias (the live state moves — stream continuity
    /// preserved) and further aliases re-parent onto the promoted owner.
    ///
    /// Under durability the results are also published as a retired file
    /// ([`MultiRuntime::retired`]).
    ///
    /// # Panics
    ///
    /// Under durability, panics when publishing the retired results fails
    /// (uninstall has no error channel yet).
    pub fn uninstall(&mut self, id: u64) -> Option<ResultSet> {
        let pos = self.roster.position(id)?;
        let results = self.lent(|roster, groups| roster.uninstall(pos, groups));
        Some(results)
    }

    /// Process one queue record: [`MultiRuntime::process_batch`] over a
    /// one-record batch.
    ///
    /// # Panics
    ///
    /// Panics (also in release builds) when called after
    /// [`MultiRuntime::finish`].
    pub fn process_record(&mut self, rec: &QueueRecord) {
        self.process_batch(std::slice::from_ref(rec));
    }

    /// Process a batch of records — the multi-query analogue of
    /// [`Runtime::process_batch`], vectorized the same way: the batch is
    /// cut into cache-sized chunks (one `u64` mask word each), each chunk
    /// materializes **once** (the union of the programs' column masks,
    /// reused row buffers), then each program's plan sweeps the chunk
    /// node-at-a-time with its own filters and keys. Results do not depend
    /// on the chunking (and are tested not to); programs are independent,
    /// so per-program stream order — the order that matters — is preserved.
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
            assert!(!rt.is_finished(), "{}", LifecycleError::ProcessAfterFinish);
            mask |= rt.base_cols();
        }
        self.roster.records += recs.len() as u64;
        let width = QueueRecord::row_width();
        if self.rows.len() != LANES * width {
            self.rows.clear();
            self.rows.resize(LANES * width, Value::Int(0));
        }
        let MultiRuntime {
            runtimes,
            rows,
            nows,
            ..
        } = self;
        for chunk in recs.chunks(CHUNK) {
            nows.clear();
            for (rec, lane) in chunk.iter().zip(rows.chunks_exact_mut(width)) {
                rec.write_row_masked_into(lane, mask);
                nows.push(rec.observed_at());
            }
            for rt in runtimes.iter_mut() {
                rt.process_lanes(rows, width, chunk.len(), nows);
            }
        }
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
    /// substitute deduplicated stores so every alias query collects from
    /// the owning program's physical store.
    pub fn finish(&mut self) {
        for rt in &mut self.runtimes {
            rt.finish();
        }
        substitute_stores(&mut self.runtimes, &self.roster.aliases);
    }

    /// Collect every program's final tables, in program order. Call after
    /// [`MultiRuntime::finish`].
    #[must_use]
    pub fn collect(&self) -> Vec<ResultSet> {
        self.runtimes.iter().map(Runtime::collect).collect()
    }

    /// Poll one installed program's current results **without stopping the
    /// world** — the multi-program incremental read path. Returns `None`
    /// for an unknown (or already uninstalled) id. The deployment is
    /// untouched: caches stay resident, ingest continues afterwards, and
    /// the eventual drain is byte-identical to a never-polled replay.
    ///
    /// Alias queries (cross-program store dedup) read the owning program's
    /// live store through the same frame merge the drain-time substitution
    /// uses, so a polled alias equals its never-deduplicated twin. For
    /// per-epoch streaming on top of the returned frames, feed them to a
    /// [`crate::DeltaCursor`].
    #[must_use]
    pub fn poll(&self, id: u64) -> Option<ResultSet> {
        let pos = self.roster.position(id)?;
        Some(
            self.roster
                .poll(pos, |p| std::slice::from_ref(&self.runtimes[p])),
        )
    }
}

/// K programs × N shards behind one shared ingest pass: each program owns a
/// worker group (its own router, SPSC queues and N worker threads), and
/// every record is routed once per program. Under
/// [`MultiSharded::provisioned`], each shard's cache is `1/N` of the
/// program's SRAM slice, so the whole deployment still fits the single
/// fixed budget. Duplicate stores across programs are deduplicated exactly
/// as in [`MultiRuntime`] (see the module docs): alias aggregations leave
/// every worker's streaming pass, and the drain substitutes the owning
/// program's merged store. Install, uninstall, poll and the durable tier
/// are [`MultiRuntime`]'s, run over worker groups this plane pauses and
/// resumes around them; [`ShardedRuntime`](crate::ShardedRuntime) is this
/// plane at K = 1.
#[derive(Debug)]
pub struct MultiSharded {
    /// One worker group per installed program.
    pub(crate) sharded: Vec<ShardGroup>,
    /// Who is installed, and the one lifecycle over them.
    roster: Roster,
}

impl MultiSharded {
    /// Spawn `shards` workers per program with the geometries the programs
    /// already carry (replicated per shard — the *unprovisioned*
    /// configuration), with cross-program store dedup enabled.
    ///
    /// # Panics
    ///
    /// Panics on an empty program list or zero shards.
    #[must_use]
    pub fn new(programs: Vec<CompiledProgram>, shards: usize) -> Self {
        Self::with_sharing(programs, shards, true)
    }

    /// [`MultiSharded::new`] without the sharing pass (differential
    /// baseline).
    #[doc(hidden)]
    #[must_use]
    pub fn new_unshared(programs: Vec<CompiledProgram>, shards: usize) -> Self {
        Self::with_sharing(programs, shards, false)
    }

    fn with_sharing(programs: Vec<CompiledProgram>, shards: usize, share: bool) -> Self {
        let roster = Roster::new(programs, share, Some(shards));
        let workers = roster.worker_programs();
        Self::build(roster, workers)
    }

    /// Spawn one worker group per worker program.
    fn build(roster: Roster, workers: Vec<CompiledProgram>) -> Self {
        MultiSharded {
            sharded: (workers.iter())
                .map(|w| ShardGroup::new(roster.spawn(w)))
                .collect(),
            roster,
        }
    }

    /// Spawn under a shared SRAM budget: the budget divides across programs
    /// ([`provision`], store dedup included — deduplicated stores are
    /// charged once), and each program's slice divides across its `shards`
    /// workers — constant total area at any scale.
    ///
    /// The sharing analysis that tags the planner's dedup groups is gated
    /// on shard exactness, and re-run against the provisioned geometries
    /// before any store is elided — the dataplane never elides a store the
    /// strict rule does not cover at the geometries it actually runs.
    pub fn provisioned(
        programs: Vec<CompiledProgram>,
        budget_bits: u64,
        shards: usize,
    ) -> Result<(Self, AreaPlan), PlanError> {
        let (roster, workers, plan) = Roster::provisioned(programs, budget_bits, Some(shards))?;
        Ok((Self::build(roster, workers), plan))
    }

    /// Number of installed programs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sharded.len()
    }

    /// True when no program is installed (only possible after
    /// [`MultiSharded::uninstall`] removed the last one).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sharded.is_empty()
    }

    /// Worker shards per program.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.roster.shards.expect("a sharded roster")
    }

    /// The stable install ids, in program order.
    #[must_use]
    pub fn ids(&self) -> &[u64] {
        &self.roster.ids
    }

    /// Records routed into the deployment so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.roster.records
    }

    /// What the install-time sharing pass shared across the programs.
    #[must_use]
    pub fn sharing(&self) -> &SharingReport {
        &self.roster.report
    }

    /// Route one record to its shard in **every** program's dataplane.
    pub fn process_record(&mut self, rec: &QueueRecord) {
        self.roster.records += 1;
        for sh in &mut self.sharded {
            sh.process_record(rec);
        }
    }

    /// Route a batch of records to every program's dataplane.
    pub fn process_batch(&mut self, recs: &[QueueRecord]) {
        for rec in recs {
            self.process_record(rec);
        }
    }

    /// Replay a packet stream through a network into every program's shard
    /// queues in one pass — the multi-program producer
    /// ([`Network::run_multi_sharded`]). Returns per-program, per-shard
    /// routed counts.
    ///
    /// This hands the producer side of every SPSC queue to the network
    /// loop; lifecycle operations ([`MultiSharded::install`] /
    /// [`MultiSharded::uninstall`]) are not supported afterwards — drive
    /// records via [`MultiSharded::process_batch`] when interleaving
    /// lifecycle events with ingest.
    pub fn run_network(
        &mut self,
        net: &mut Network,
        packets: impl Iterator<Item = perfq_packet::Packet>,
        batch: usize,
    ) -> Vec<Vec<u64>> {
        let (mut routers, senders): (Vec<_>, Vec<_>) = self
            .sharded
            .iter_mut()
            .map(ShardGroup::take_feeds)
            .unzip();
        let counts = net.run_multi_sharded(packets, |i, r| routers[i].route(r), senders, batch);
        if let Some(first) = counts.first() {
            self.roster.records += first.iter().sum::<u64>();
        }
        counts
    }

    /// Quiesce the worker groups `need` marks (index order keeps pause and
    /// resume deterministic): in-flight queue records drain to the stores,
    /// the workers hand back their runtimes with caches resident.
    fn pause(&mut self, need: &[bool]) -> Vec<Group> {
        let groups = self.sharded.iter_mut().zip(need);
        groups.map(|(sh, n)| n.then(|| sh.pause())).collect()
    }

    /// Restart every group [`MultiSharded::pause`] quiesced.
    fn resume(&mut self, groups: Vec<Group>) {
        for (sh, workers) in self.sharded.iter_mut().zip(groups) {
            if let Some(workers) = workers {
                sh.resume(workers);
            }
        }
    }

    /// Quiesce every worker group for the duration of `f` and resume them
    /// all whatever it returns: a failed durable call leaves the plane
    /// running with its in-RAM state intact.
    fn paused<R>(&mut self, f: impl FnOnce(&mut Roster, &mut [Group]) -> R) -> R {
        let mut groups = self.pause(&vec![true; self.sharded.len()]);
        let out = f(&mut self.roster, &mut groups);
        self.resume(groups);
        out
    }

    /// Attach a durable spill tier to every worker's stores (off by
    /// default; see [`crate::durable`]) — [`MultiRuntime::enable_durability`]
    /// across cores. Every group quiesces between batches, shard `i` of
    /// program `id` persists under `p<id>_s<i>_`, programs installed later
    /// join on arrival, and ingestion resumes — also when the call fails.
    /// One deployment manifest covers every program and shard.
    ///
    /// # Panics
    ///
    /// Panics after [`MultiSharded::run_network`], or if a worker died.
    pub fn enable_durability(&mut self, d: Durability) -> std::io::Result<()> {
        self.paused(|roster, groups| roster.enable_durability(d, groups))
    }

    /// Durably checkpoint the whole deployment at the current record index
    /// ([`MultiRuntime::persist`] over quiesced worker groups, resumed
    /// whatever the outcome). Routing is a pure function of each program's
    /// key, so a recovered plane re-ingesting from the returned index
    /// reproduces every worker's exact sub-stream.
    ///
    /// # Panics
    ///
    /// Panics unless [`MultiSharded::enable_durability`] was called, after
    /// [`MultiSharded::run_network`], or if a worker died.
    pub fn persist(&mut self) -> std::io::Result<()> {
        self.paused(|roster, groups| roster.persist(groups))
    }

    /// Recover a crashed sharded deployment — [`MultiRuntime::recover`]'s
    /// contract and scope (no mid-stream lifecycle events) at the same
    /// shard count. Returns the plane with the resume index.
    pub fn recover(
        programs: Vec<CompiledProgram>,
        shards: usize,
        d: Durability,
    ) -> std::io::Result<(Self, u64)> {
        Self::new(programs, shards).recovered(d)
    }

    /// Repair this freshly built plane's durable files against the
    /// deployment manifest; the plane and the resume index.
    pub(crate) fn recovered(mut self, d: Durability) -> std::io::Result<(Self, u64)> {
        let at = self.paused(|roster, groups| roster.recover(d, groups))?;
        Ok((self, at))
    }

    /// Read back a retired program's durably published final results.
    /// `Ok(None)` when this id never left under durability; an
    /// [`std::io::ErrorKind::InvalidData`] error when its file is corrupt.
    ///
    /// # Panics
    ///
    /// Panics unless [`MultiSharded::enable_durability`] was called.
    pub fn retired(&self, id: u64) -> std::io::Result<Option<ResultSet>> {
        self.roster.retired(id)
    }

    /// Install one more compiled program into the live sharded deployment
    /// — [`MultiRuntime::install`] semantics and implementation, across
    /// cores. Returns the program's stable install id.
    ///
    /// The new program gets its own worker group (fresh workers and
    /// queues, under durability with `p<id>_s<i>_` spill tiers); under a budget every resident program's workers **pause**
    /// (in-flight queue records drain to the stores first), live-migrate
    /// their caches to the replanned `1/N` shard geometries, and resume —
    /// without a budget no resident group is disturbed. Store dedup follows
    /// the single-stream rule plus the shard gates (exactness + identical
    /// routing, `retain_shard_exact`) and the lifecycle epoch/freshness
    /// gates (`lifecycle_alias_candidates`).
    ///
    /// Not supported after [`MultiSharded::run_network`] (the queue
    /// producers were handed away).
    ///
    /// # Errors
    ///
    /// [`InstallError::Plan`] for whatever the replan rejects — including a
    /// `1/N` shard slice too small for one pair — and [`InstallError::Io`]
    /// when the durable-tier attach fails; the deployment is untouched on
    /// error.
    pub fn install(&mut self, program: CompiledProgram) -> Result<u64, InstallError> {
        let (staged, arrival) = self.roster.stage_install(program)?;
        let mut groups = self.pause(&self.roster.touched(&staged));
        let id = self.roster.commit_install(staged, &mut groups);
        self.resume(groups);
        self.sharded.push(ShardGroup::new(arrival));
        Ok(id)
    }

    /// Uninstall the program with install id `id`, returning its final
    /// (cross-shard merged) results — exactly what
    /// [`ShardedRuntime::finish`](crate::ShardedRuntime::finish) + collect
    /// would report for a private deployment stopped now. `None` for an
    /// unknown id. Under durability the results are also published as a
    /// retired file ([`MultiSharded::retired`]).
    ///
    /// [`MultiRuntime::uninstall`] over paused worker groups: every
    /// dataplane quiesces (the final poll, promotions and the remaining
    /// programs' migrations all need the worker runtimes), the departing
    /// program is polled one last time (per-shard frames merged, aliases
    /// redirected to their owner's workers), departing owners' shared
    /// stores are promoted **worker by worker** into their first surviving
    /// alias, and under a budget the remaining programs replan onto the
    /// reclaimed area and live-migrate before everything resumes.
    ///
    /// Not supported after [`MultiSharded::run_network`].
    ///
    /// # Panics
    ///
    /// Under durability, panics when publishing the retired results fails
    /// (uninstall has no error channel yet).
    pub fn uninstall(&mut self, id: u64) -> Option<ResultSet> {
        let pos = self.roster.position(id)?;
        let mut groups = self.pause(&vec![true; self.sharded.len()]);
        drop(self.sharded.remove(pos));
        let results = self.roster.uninstall(pos, &mut groups);
        self.resume(groups);
        Some(results)
    }

    /// Poll one installed program's current results **without stopping the
    /// world** — the sharded multi-program incremental read path. Returns
    /// `None` for an unknown (or already uninstalled) id.
    ///
    /// Only the programs involved quiesce, and only for the poll: the
    /// polled program's dataplane plus the owning program of each of its
    /// deduplicated alias stores pause between batches
    /// (`ShardGroup::pause`), their per-shard frames merge through
    /// the same normalization the drain uses, and every paused dataplane
    /// resumes with caches resident. Uninvolved programs keep running
    /// untouched. The eventual drain is byte-identical to a never-polled
    /// replay (pinned by `tests/poll_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if a worker of an involved program died.
    #[must_use]
    pub fn poll(&mut self, id: u64) -> Option<ResultSet> {
        let pos = self.roster.position(id)?;
        let mut involved = vec![false; self.sharded.len()];
        involved[pos] = true;
        for (owner, _) in self.roster.poll_sources(pos).into_iter().flatten() {
            involved[owner] = true;
        }
        let groups = self.pause(&involved);
        let results = self.roster.poll(pos, |p| {
            groups[p].as_deref().expect("involved groups are paused")
        });
        self.resume(groups);
        Some(results)
    }

    /// Drain every program's dataplane (join workers, merge fold state)
    /// into finished per-program runtimes, in program order, substituting
    /// deduplicated stores from their owning programs.
    #[must_use]
    pub fn finish(self) -> Vec<Runtime> {
        let mut runtimes: Vec<Runtime> = self
            .sharded
            .into_iter()
            .map(ShardGroup::finish)
            .collect();
        substitute_stores(&mut runtimes, &self.roster.aliases);
        runtimes
    }

    /// Drain and collect every program's final tables in one step.
    #[must_use]
    pub fn finish_collect(self) -> Vec<ResultSet> {
        self.finish().iter().map(Runtime::collect).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_query;
    use crate::compiler::CompileOptions;
    use perfq_kvstore::InlineKey;
    use perfq_lang::fig2;
    use perfq_switch::NetworkConfig;
    use perfq_trace::{SyntheticTrace, TraceConfig};

    const MBIT: u64 = 1024 * 1024;

    fn compiled(src: &str) -> CompiledProgram {
        compile_query(src, &fig2::default_params(), CompileOptions::default()).unwrap()
    }

    #[test]
    fn demand_reports_the_papers_pair_width() {
        let c = compiled("SELECT COUNT GROUPBY 5tuple");
        let d = demand_of("counters", &c).unwrap();
        assert_eq!(d.stores.len(), 1);
        // §4's 104-bit 5-tuple key; the compiled counter state is a 32-bit
        // integer (the paper's 128-bit figure uses its 24-bit minimum
        // counter width — pinned separately against `area::PAIR_BITS`).
        assert_eq!(d.stores[0].pair_bits, 104 + 32);
        assert!(demand_of("sel", &compiled("SELECT srcip FROM T")).is_none());
    }

    #[test]
    fn provision_rewrites_geometries_within_budget() {
        let mut programs: Vec<CompiledProgram> = [
            "SELECT COUNT GROUPBY 5tuple",
            "SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip",
        ]
        .iter()
        .map(|s| compiled(s))
        .collect();
        let plan = provision(&mut programs, 8 * MBIT).unwrap();
        assert!(plan.allocated_bits() <= 8 * MBIT);
        for (p, alloc) in programs.iter().zip(&plan.queries) {
            let store = p.stores[0].as_ref().unwrap();
            assert_eq!(store.geometry, alloc.stores[0].geometry);
            assert_ne!(
                store.geometry,
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
        let records =
            net.run_collect(SyntheticTrace::new(TraceConfig::test_small(5)).take(4_000));
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
        let aliases = analyze_sharing(&programs);
        assert_eq!(aliases.len(), 1, "loss-rate R1 aliases the counter");
        assert_eq!(aliases[0], ((1, 0), (0, 0)));
    }

    #[test]
    fn different_filters_and_geometries_block_dedup() {
        // Loss-rate R1 vs R2: same store shape, different filter.
        let loss = compiled(fig2::PER_FLOW_LOSS_RATE.source);
        assert!(!stores_dedupable(&loss, 0, &loss, 1));
        // Same query text, different cache geometry: physically different.
        let a = compiled("SELECT COUNT GROUPBY 5tuple");
        let b = compile_query(
            "SELECT COUNT GROUPBY 5tuple",
            &fig2::default_params(),
            CompileOptions {
                cache_pairs: 1 << 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(stores_dedupable(&a, 0, &a, 0));
        assert!(!stores_dedupable(&a, 0, &b, 0));
        assert!(analyze_sharing(&[a, b]).is_empty());
    }

    #[test]
    fn dedup_is_byte_identical_and_reported() {
        let programs = vec![
            compiled("SELECT COUNT GROUPBY 5tuple"),
            compiled(fig2::PER_FLOW_LOSS_RATE.source),
        ];
        let mut net = Network::new(NetworkConfig::default());
        let records =
            net.run_collect(SyntheticTrace::new(TraceConfig::test_small(3)).take(3_000));
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
    fn composed_duplicates_are_charged_conservatively() {
        // Two copies of the high-latency program: R2 (a composed GROUPBY
        // over R1's stream) dedups at run time, but the planner must not
        // pocket its SRAM — provisioning could re-size the two R1 chains
        // differently, and a plan may never charge once for a store the
        // dataplane might build twice.
        let mut programs = vec![
            compiled(fig2::PER_FLOW_HIGH_LATENCY.source),
            compiled(fig2::PER_FLOW_HIGH_LATENCY.source),
        ];
        let plan = provision(&mut programs, 32 * MBIT).unwrap();
        assert_eq!(
            plan.deduped_stores(),
            0,
            "composed aliases are not planner-tagged"
        );
        // Identical programs were re-sized identically, so the run-time
        // pass still collapses R2 (pure exec win, area charged for both).
        let multi = MultiRuntime::new(programs);
        assert!(multi
            .sharing()
            .stores
            .iter()
            .any(|s| s.alias.1 == "R2" && s.owner.1 == "R2"));
    }

    #[test]
    fn diverged_chains_after_provisioning_do_not_dedup() {
        // The same composed R2 chain, but program B carries an extra store:
        // its slice splits three ways instead of two, so after provisioning
        // the two R1 stores differ — the upstream chain is physically
        // different and R2 must keep its private store.
        let b_src = format!("{}R3 = SELECT COUNT GROUPBY srcip\n", fig2::PER_FLOW_HIGH_LATENCY.source);
        let mut programs = vec![
            compiled(fig2::PER_FLOW_HIGH_LATENCY.source),
            compiled(&b_src),
        ];
        let plan = provision(&mut programs, 32 * MBIT).unwrap();
        assert_eq!(plan.deduped_stores(), 0);
        assert_ne!(
            programs[0].stores[0].as_ref().unwrap().geometry,
            programs[1].stores[0].as_ref().unwrap().geometry,
            "the premise: provisioning diverged the R1 chains"
        );
        let multi = MultiRuntime::new(programs);
        assert!(
            multi.sharing().stores.is_empty(),
            "diverged chains must not dedup: {:?}",
            multi.sharing().stores
        );
    }

    #[test]
    fn inexact_programs_keep_private_stores_in_sharded_provisioning() {
        // MAX keyed off the shard key is neither order-free nor confined:
        // the program's partitioning is statically inexact, so the sharded
        // plane must not dedup — and the plan must charge every store it
        // actually builds.
        let src = "R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT MAX(qsize) GROUPBY dstip\n";
        let programs = vec![compiled(src), compiled(src)];
        let (sh, plan) = MultiSharded::provisioned(programs.clone(), 32 * MBIT, 2).unwrap();
        assert!(
            sh.sharing().stores.is_empty(),
            "inexact partitioning blocks sharded dedup"
        );
        assert_eq!(
            plan.deduped_stores(),
            0,
            "the plan charges exactly what the dataplane builds"
        );
        let _ = sh.finish();
        // The single-stream plane has no such constraint: both stores dedup.
        let multi = MultiRuntime::new(programs);
        assert_eq!(multi.sharing().stores.len(), 2);
    }

    #[test]
    fn sharded_dedup_requires_identical_routing() {
        // Program A's primary key is srcip, program B's is the 5-tuple:
        // their identical TCP-non-monotonic stores partition records onto
        // workers differently, so per-worker eviction timing diverges —
        // epoch folds would observe it. The sharded plane must keep the
        // stores private; the single-stream plane may still dedup.
        let a_src = format!("R0 = SELECT COUNT GROUPBY srcip\n{}", fig2::TCP_NON_MONOTONIC.source);
        // Put the non-monotonic query at index 1 in BOTH programs so the
        // store seeds match (dedup is otherwise blocked by the seed).
        let b_src = format!("R0 = SELECT COUNT GROUPBY 5tuple\n{}", fig2::TCP_NON_MONOTONIC.source);
        let programs = vec![compiled(&b_src), compiled(&a_src)];
        // The fold's `def` is not a query: the non-monotonic store sits at
        // query index 1 in both programs (same placement seed).
        let mut aliases = analyze_sharing(&programs);
        assert!(
            aliases.contains(&((1, 1), (0, 1))),
            "premise: the single-stream pass dedups the shared store: {aliases:?}"
        );
        retain_shard_exact(&mut aliases, &programs);
        assert!(
            !aliases.contains(&((1, 1), (0, 1))),
            "different routing must block sharded dedup: {aliases:?}"
        );
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
    fn multi_sharded_provisioned_sizes_shards_at_one_nth() {
        let programs = vec![compiled("SELECT COUNT GROUPBY 5tuple")];
        let shards = 4;
        let (sh, plan) =
            MultiSharded::provisioned(programs, 32 * MBIT, shards).unwrap();
        assert_eq!(sh.shards(), shards);
        let store = plan.queries[0].stores[0];
        let per_shard = store.shard_geometry(shards).unwrap();
        assert_eq!(per_shard.capacity(), store.geometry.capacity() / shards);
        // Drive a few records through so drain has work to merge.
        let mut net = Network::new(NetworkConfig::default());
        let recs = net.run_collect(SyntheticTrace::new(TraceConfig::test_small(9)).take(1_000));
        let mut sh = sh;
        sh.process_batch(&recs);
        let results = sh.finish_collect();
        assert_eq!(results.len(), 1);
        assert!(!results[0].tables[0].rows.is_empty());
    }

    #[test]
    fn provision_charges_deduplicated_stores_once() {
        // counter + loss rate: 3 demanded stores, but R1 duplicates the
        // counter — the plan charges 2 physical stores and every physical
        // cache grows past its unshared size.
        let mut programs = vec![
            compiled("SELECT COUNT GROUPBY 5tuple"),
            compiled(fig2::PER_FLOW_LOSS_RATE.source),
        ];
        let plan = provision(&mut programs, 32 * MBIT).unwrap();
        assert_eq!(plan.deduped_stores(), 1);
        assert!(plan.reclaimed_bits() > 0);
        assert!(plan.allocated_bits() <= 32 * MBIT);
        // The counter's geometry equals loss-rate R1's geometry (they are
        // one store), and both exceed what an unshared plan would grant.
        let counter_geom = programs[0].stores[0].as_ref().unwrap().geometry;
        let r1_geom = programs[1].stores[0].as_ref().unwrap().geometry;
        assert_eq!(counter_geom, r1_geom);
        let mut unshared = [
            compiled("SELECT COUNT GROUPBY 5tuple"),
            compiled(fig2::PER_FLOW_LOSS_RATE.source),
        ];
        // Strip the dedup win by planning each program alone on its share.
        let solo = provision(&mut unshared[..1], 16 * MBIT).unwrap();
        assert!(
            counter_geom.capacity() > solo.queries[0].stores[0].geometry.capacity(),
            "reclaimed bits must buy a bigger cache"
        );
    }

    #[test]
    fn empty_demand_sets_are_errors_not_panics() {
        let mut programs = vec![compiled("SELECT srcip FROM T")];
        assert!(matches!(
            provision(&mut programs, 32 * MBIT),
            Err(PlanError::EmptyDemands)
        ));
    }

    #[test]
    fn install_observes_only_the_suffix() {
        let mut net = Network::new(NetworkConfig::default());
        let records =
            net.run_collect(SyntheticTrace::new(TraceConfig::test_small(11)).take(4_000));
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
        let records =
            net.run_collect(SyntheticTrace::new(TraceConfig::test_small(13)).take(6_000));
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
        let mut progs = vec![
            compiled("SELECT COUNT GROUPBY 5tuple"),
            compiled("SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip"),
        ];
        provision(&mut progs, 8 * MBIT).unwrap();
        let mut reference = Runtime::new(progs.pop().unwrap());
        reference.process_batch(b);
        reference.finish();
        assert_eq!(departed, reference.collect());
    }

    #[test]
    fn equal_epoch_install_adopts_the_shared_store() {
        let mut net = Network::new(NetworkConfig::default());
        let records =
            net.run_collect(SyntheticTrace::new(TraceConfig::test_small(17)).take(3_000));
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

    #[test]
    fn cross_epoch_duplicates_stay_private_and_exact() {
        let mut net = Network::new(NetworkConfig::default());
        let records =
            net.run_collect(SyntheticTrace::new(TraceConfig::test_small(19)).take(4_000));
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
        let records =
            net.run_collect(SyntheticTrace::new(TraceConfig::test_small(29)).take(4_000));
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

    #[test]
    fn sharded_lifecycle_matches_the_single_stream_plane() {
        let mut net = Network::new(NetworkConfig::default());
        let records =
            net.run_collect(SyntheticTrace::new(TraceConfig::test_small(23)).take(4_000));
        let (head, tail) = records.split_at(2_000);
        let programs = || vec![compiled("SELECT COUNT GROUPBY 5tuple")];
        let arrival = || compiled(fig2::PER_FLOW_LOSS_RATE.source);
        let (mut sh, _) = MultiSharded::provisioned(programs(), 32 * MBIT, 2).unwrap();
        let (mut single, _) = MultiRuntime::provisioned(programs(), 32 * MBIT).unwrap();
        sh.process_batch(head);
        single.process_batch(head);
        let sid = sh.install(arrival()).unwrap();
        let mid = single.install(arrival()).unwrap();
        sh.process_batch(tail);
        single.process_batch(tail);
        let mut a = sh.uninstall(sid).unwrap();
        let mut b = single.uninstall(mid).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b, "the departing program's results agree across planes");
        let mut got_sh = sh.finish_collect();
        single.finish();
        let mut got_single = single.collect();
        for (x, y) in got_sh.iter_mut().zip(got_single.iter_mut()) {
            x.sort();
            y.sort();
        }
        assert_eq!(got_sh, got_single);
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
                let mut store = rt.clone_store(idx);
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
                assert_sorted(&rt.poll_results(), rt.compiled(), "Runtime::poll_results");
            }
            for (id, rt) in multi.ids().to_vec().into_iter().zip(multi.runtimes()) {
                let polled = multi.poll(id).expect("installed program");
                assert_sorted(&polled, rt.compiled(), "MultiRuntime::poll");
            }
        }
        // Drained, the scrambled arenas are in reach: every table must equal
        // the reference — gather its arena, sort by key words — row for row.
        let assert_reference = |set: &ResultSet, rt: &Runtime, what: &str| {
            assert_sorted(set, rt.compiled(), what);
            for (idx, q) in rt.compiled().program.queries.iter().enumerate() {
                let ResolvedKind::GroupBy(g) = &q.kind else {
                    continue;
                };
                let store = rt.clone_store(idx);
                let arena = crate::runtime::backing_rows(store.backing());
                let want = crate::runtime::reference_group_rows(g, &q.schema, arena);
                assert_eq!(set.tables[idx].rows, want, "{what}: table {}", q.name);
            }
        };
        multi.finish();
        for (set, rt) in multi.collect().iter().zip(multi.runtimes()) {
            assert_reference(set, rt, "MultiRuntime::collect");
        }
        for rt in &mut singles {
            rt.finish();
            assert_reference(&rt.collect(), rt, "Runtime::collect");
        }
    }
}
