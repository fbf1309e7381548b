//! Referee tests for the dynamic query lifecycle: online
//! [`MultiRuntime::install`] / [`MultiRuntime::uninstall`] (and the sharded
//! twins) must be **byte-identical** to never having churned at all.
//!
//! The reference semantics: at every install event, imagine restarting the
//! whole deployment from scratch — batch-provision the then-active program
//! set under the same budget and replay only the record suffix from that
//! event on, applying every later lifecycle operation in lockstep. A
//! program installed at that event observed exactly that suffix, so its
//! results (at uninstall, and at the final collect) must match the
//! restarted deployment's. The differential driver below spawns one such
//! reference deployment per install event and holds every interleaving of
//! installs, uninstalls and record chunks to that standard — on the
//! single-stream plane and the 1/2/4-shard planes, with and without an
//! SRAM area budget (where installs shrink resident slices and live-migrate
//! resident stores, and uninstalls regrow them).
//!
//! Scenario constraint (mirrors the dataplane's own epoch gate):
//! structurally-identical queries are only installed back-to-back, with no
//! records in between. A batch-restarted reference deduplicates any
//! structural twins in its initial set — legal there, because every store
//! is empty at spawn — so a twin installed *after* records flowed would
//! give the reference a different plan than the live deployment's
//! (which correctly refuses the cross-epoch alias). Cross-epoch twins are
//! pinned separately by the in-crate test
//! `cross_epoch_duplicates_stay_private_and_exact`.

use perfq::kvstore::PlanError;
use perfq::prelude::*;
use perfq_core::InstallError;
use std::sync::{Arc, Mutex};

const MBIT: u64 = 1024 * 1024;

/// The §4 running example — verbatim the loss-rate program's `R1`, so
/// installing it beside `PER_FLOW_LOSS_RATE` exercises store dedup.
const FIVE_TUPLE_COUNTER: &str = "SELECT COUNT GROUPBY 5tuple\n";

/// The Fig. 2 high-latency program with a third, unrelated query appended:
/// same `R1 -> R2` chain (same store indices, hence same per-store hash
/// seeds) but a different store count, so its per-store slices differ from
/// plain `PER_FLOW_HIGH_LATENCY`'s under any one budget.
const HIGH_LATENCY_PLUS: &str = "\
R1 = SELECT pkt_uniq, SUM(tout-tin) GROUPBY pkt_uniq
R2 = SELECT 5tuple FROM R1 GROUPBY 5tuple
     WHERE SUM(tout-tin) > L
R3 = SELECT COUNT GROUPBY srcip, dstip
";

/// Keys a base column (`qid`) no other program in the catalog reads: its
/// arrival widens the row the single-stream plane materializes per record.
const QID_COUNTER: &str = "SELECT COUNT GROUPBY qid\n";

/// A trace with drops, TCP anomalies and multi-queue records.
fn records(n: usize) -> Vec<QueueRecord> {
    let mut net = Network::new(NetworkConfig {
        topology: Topology::Linear(2),
        ..Default::default()
    });
    net.run_collect(SyntheticTrace::new(TraceConfig::test_small(21)).take(n))
}

fn compiled(src: &str) -> CompiledProgram {
    perfq_core::compile_query(src, &fig2::default_params(), CompileOptions::default())
        .expect("lifecycle catalog compiles")
}

/// One lifecycle operation in a scenario script.
#[derive(Clone, Copy)]
enum Op {
    /// Install a program compiled from this source.
    Install(&'static str),
    /// Uninstall the `n`-th program ever installed (0-based, counting the
    /// initial set in order).
    Uninstall(usize),
    /// Feed the next `n` records of the shared trace.
    Chunk(usize),
}
use Op::{Chunk, Install, Uninstall};

/// A deployment under test: the single-stream plane or a sharded one.
#[allow(clippy::large_enum_variant)] // a handful live per test; size is irrelevant
enum Plane {
    Single(MultiRuntime),
    Sharded(MultiSharded),
}

impl Plane {
    fn spawn(programs: Vec<CompiledProgram>, budget: Option<u64>, shards: Option<usize>) -> Self {
        match (shards, budget) {
            (None, None) => Plane::Single(MultiRuntime::new(programs)),
            (None, Some(b)) => {
                Plane::Single(MultiRuntime::provisioned(programs, b).expect("plan fits").0)
            }
            (Some(s), None) => Plane::Sharded(MultiSharded::new(programs, s)),
            (Some(s), Some(b)) => {
                Plane::Sharded(MultiSharded::provisioned(programs, b, s).expect("plan fits").0)
            }
        }
    }

    fn install(&mut self, p: CompiledProgram) -> u64 {
        self.try_install(p).expect("install replans")
    }

    fn try_install(&mut self, p: CompiledProgram) -> Result<u64, InstallError> {
        match self {
            Plane::Single(m) => m.install(p),
            Plane::Sharded(m) => m.install(p),
        }
    }

    /// Everything a rejected install must leave exactly as it was: the
    /// install ids, the program count and the sharing report.
    fn shape(&self) -> (Vec<u64>, usize, String) {
        match self {
            Plane::Single(m) => (m.ids().to_vec(), m.len(), format!("{:?}", m.sharing())),
            Plane::Sharded(m) => (m.ids().to_vec(), m.len(), format!("{:?}", m.sharing())),
        }
    }

    fn uninstall(&mut self, id: u64) -> ResultSet {
        match self {
            Plane::Single(m) => m.uninstall(id).expect("id is live"),
            Plane::Sharded(m) => m.uninstall(id).expect("id is live"),
        }
    }

    fn poll(&mut self, id: u64) -> ResultSet {
        match self {
            Plane::Single(m) => m.poll(id).expect("id is live"),
            Plane::Sharded(m) => m.poll(id).expect("id is live"),
        }
    }

    /// The deduplicated stores as `(owner, alias)` program indices.
    fn shared_stores(&self) -> Vec<(usize, usize)> {
        let report = match self {
            Plane::Single(m) => m.sharing(),
            Plane::Sharded(m) => m.sharing(),
        };
        report.stores.iter().map(|s| (s.owner.0, s.alias.0)).collect()
    }

    fn chunk(&mut self, recs: &[QueueRecord]) {
        match self {
            Plane::Single(m) => m.process_batch(recs),
            Plane::Sharded(m) => m.process_batch(recs),
        }
    }

    fn ids(&self) -> Vec<u64> {
        match self {
            Plane::Single(m) => m.ids().to_vec(),
            Plane::Sharded(m) => m.ids().to_vec(),
        }
    }

    fn done(self) -> Vec<ResultSet> {
        match self {
            Plane::Single(mut m) => {
                m.finish();
                m.collect()
            }
            Plane::Sharded(m) => m.finish_collect(),
        }
    }
}

/// A restart-from-scratch deployment spawned at one install event.
struct Reference {
    plane: Plane,
    /// Active programs in program order, each tagged with the live
    /// deployment's install id and whether its results are comparable
    /// (true iff the program holds no state predating this reference's
    /// spawn — the freshly-installed program, and everything after).
    roster: Vec<(u64, bool)>,
    label: String,
}

fn canon(mut rs: ResultSet, sort: bool) -> ResultSet {
    if sort {
        rs.sort();
    }
    rs
}

/// Run one lifecycle script against one plane configuration, holding the
/// live deployment to every restarted reference.
fn run_differential(
    initial: &[&'static str],
    ops: &[Op],
    total: usize,
    budget: Option<u64>,
    shards: Option<usize>,
) {
    let recs = records(total);
    // Two identically-sharded deployments merge shards in the same order,
    // but sorting keeps the comparison about values, not merge order.
    let sort = shards.is_some();
    let build = |srcs: &[&'static str]| srcs.iter().map(|s| compiled(s)).collect::<Vec<_>>();

    let mut live = Plane::spawn(build(initial), budget, shards);
    let mut active_src: Vec<&'static str> = initial.to_vec();
    let mut active_ids: Vec<u64> = live.ids();
    let mut install_order: Vec<u64> = active_ids.clone();

    // The deployment's own construction is install event zero: everything
    // in the initial set is fresh, so every program is comparable.
    let mut refs = vec![Reference {
        plane: Plane::spawn(build(initial), budget, shards),
        roster: active_ids.iter().map(|&id| (id, true)).collect(),
        label: "restart@start".into(),
    }];

    let mut cursor = 0usize;
    for (event, op) in ops.iter().enumerate() {
        match *op {
            Chunk(n) => {
                let slice = &recs[cursor..cursor + n];
                cursor += n;
                live.chunk(slice);
                for r in &mut refs {
                    r.plane.chunk(slice);
                }
            }
            Install(src) => {
                let lid = live.install(compiled(src));
                for r in &mut refs {
                    r.plane.install(compiled(src));
                    r.roster.push((lid, true));
                }
                active_src.push(src);
                active_ids.push(lid);
                install_order.push(lid);
                let roster = active_ids
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| (id, i == active_ids.len() - 1))
                    .collect();
                refs.push(Reference {
                    plane: Plane::spawn(build(&active_src), budget, shards),
                    roster,
                    label: format!("restart@op{event}"),
                });
            }
            Uninstall(nth) => {
                let lid = install_order[nth];
                let pos = active_ids
                    .iter()
                    .position(|&i| i == lid)
                    .expect("uninstall target is active");
                let got = live.uninstall(lid);
                for r in &mut refs {
                    let rpos = r
                        .roster
                        .iter()
                        .position(|&(i, _)| i == lid)
                        .expect("rosters track the live deployment");
                    let rid = r.plane.ids()[rpos];
                    let want = r.plane.uninstall(rid);
                    let (_, comparable) = r.roster.remove(rpos);
                    if comparable {
                        assert_eq!(
                            canon(got.clone(), sort),
                            canon(want, sort),
                            "uninstall(id {lid}) diverges from {} \
                             (budget {budget:?}, shards {shards:?})",
                            r.label
                        );
                    }
                }
                active_src.remove(pos);
                active_ids.remove(pos);
            }
        }
    }

    let live_final = live.done();
    for r in refs {
        let roster = r.roster;
        let label = r.label;
        let want = r.plane.done();
        assert_eq!(want.len(), live_final.len(), "{label} lost lockstep");
        for (pos, (id, comparable)) in roster.iter().enumerate() {
            if *comparable {
                assert_eq!(
                    canon(live_final[pos].clone(), sort),
                    canon(want[pos].clone(), sort),
                    "final results for id {id} diverge from {label} \
                     (budget {budget:?}, shards {shards:?})"
                );
            }
        }
    }
}

/// Every plane configuration a scenario must survive: the single-stream
/// plane under no budget, a roomy budget, and a tight budget that forces
/// real shrink/grow migrations; and the 1/2/4-shard planes.
fn all_planes(initial: &[&'static str], ops: &[Op], total: usize) {
    for budget in [None, Some(32 * MBIT), Some(6 * MBIT)] {
        run_differential(initial, ops, total, budget, None);
    }
    for shards in [1usize, 2, 4] {
        for budget in [None, Some(32 * MBIT)] {
            run_differential(initial, ops, total, budget, Some(shards));
        }
    }
}

#[test]
fn installs_mid_stream_observe_only_their_suffix() {
    // The last arrival reads a column no resident reads: its suffix is
    // exact only if the materialized row follows the resident set.
    all_planes(
        &[fig2::LATENCY_EWMA.source],
        &[
            Chunk(600),
            Install(FIVE_TUPLE_COUNTER),
            Chunk(600),
            Install(fig2::TCP_OUT_OF_SEQUENCE.source),
            Chunk(400),
            Install(QID_COUNTER),
            Chunk(400),
        ],
        2000,
    );
}

#[test]
fn uninstalls_mid_stream_regrow_the_survivors() {
    all_planes(
        &[
            FIVE_TUPLE_COUNTER,
            fig2::LATENCY_EWMA.source,
            fig2::TCP_OUT_OF_SEQUENCE.source,
        ],
        &[
            Chunk(600),
            Uninstall(1),
            Chunk(600),
            Uninstall(0),
            Chunk(400),
        ],
        1600,
    );
}

#[test]
fn dedup_adoption_and_owner_handoff_stay_exact() {
    // COUNTER and the loss-rate program's R1 are structural twins: the
    // back-to-back install adopts the deduplicated store, and uninstalling
    // the owner mid-stream hands the physical store to the alias.
    all_planes(
        &[FIVE_TUPLE_COUNTER],
        &[
            Install(fig2::PER_FLOW_LOSS_RATE.source),
            Chunk(600),
            Install(fig2::TCP_NON_MONOTONIC.source),
            Chunk(600),
            Uninstall(0),
            Chunk(400),
            Uninstall(1),
            Chunk(200),
        ],
        1800,
    );
}

#[test]
fn churn_to_empty_and_refill_stays_exact() {
    all_planes(
        &[FIVE_TUPLE_COUNTER],
        &[
            Chunk(400),
            Install(fig2::LATENCY_EWMA.source),
            Chunk(400),
            Uninstall(0),
            Chunk(200),
            Uninstall(1),
            Install(fig2::TCP_OUT_OF_SEQUENCE.source),
            Chunk(400),
        ],
        1400,
    );
}

#[test]
fn an_install_can_adopt_a_deduped_store_on_the_sharded_plane() {
    let (mut multi, _plan) =
        MultiSharded::provisioned(vec![compiled(FIVE_TUPLE_COUNTER)], 32 * MBIT, 2)
            .expect("one counter fits");
    assert_eq!(multi.sharing().stores.len(), 0);
    multi
        .install(compiled(fig2::PER_FLOW_LOSS_RATE.source))
        .expect("install replans");
    assert_eq!(
        multi.sharing().stores.len(),
        1,
        "the equal-epoch install should adopt the counter's store"
    );
    let recs = records(800);
    multi.process_batch(&recs);
    drop(multi.finish_collect());
}

/// The repair path: a *composed* alias pair formed at install time (legal
/// because the two chains' fitted geometries coincide) must survive a
/// replan that pulls the chains apart — the shared store's state is cloned
/// back into the alias as its private store, exactly as if it had been
/// private all along.
///
/// Two programs with the same `R1 -> R2` chain but different store counts
/// get different per-store slices, so their chains only coincide when both
/// slices round to the same power-of-two geometry. The budget sweep below
/// finds such coincidences (pair formed at install) that a later uninstall
/// breaks (slices regrow at different rates), and holds the repaired
/// deployment to the restart-from-scratch standard.
#[test]
fn replans_that_diverge_a_composed_alias_repair_it_exactly() {
    let recs = records(2000);
    let mut formed = 0usize;
    let mut repaired = 0usize;
    for half_mbit in 2..=80u64 {
        let budget = half_mbit * MBIT / 2;
        let programs = vec![compiled(HIGH_LATENCY_PLUS), compiled(FIVE_TUPLE_COUNTER)];
        let Ok((mut live, _plan)) = MultiRuntime::provisioned(programs, budget) else {
            continue;
        };
        live.install(compiled(fig2::PER_FLOW_HIGH_LATENCY.source))
            .expect("install replans");
        let composed = |m: &MultiRuntime| {
            m.sharing()
                .stores
                .iter()
                .any(|s| s.owner.1 == "R2" && s.alias.1 == "R2")
        };
        if !composed(&live) {
            continue;
        }
        formed += 1;

        // Lockstep reference: a restart at the install event (no records
        // had flowed, so every program is comparable).
        let programs = vec![
            compiled(HIGH_LATENCY_PLUS),
            compiled(FIVE_TUPLE_COUNTER),
            compiled(fig2::PER_FLOW_HIGH_LATENCY.source),
        ];
        let (mut reference, _plan) =
            MultiRuntime::provisioned(programs, budget).expect("the same plan fits");
        assert!(composed(&reference), "batch analysis sees the same pair");

        live.process_batch(&recs[..1000]);
        reference.process_batch(&recs[..1000]);
        let counter_id = live.ids()[1];
        let got = live.uninstall(counter_id).expect("counter is live");
        let want = reference
            .uninstall(reference.ids()[1])
            .expect("counter is live");
        assert_eq!(got, want, "uninstalled counter diverged at {budget} bits");
        if !composed(&live) {
            // The regrown slices no longer coincide: the pair was repaired.
            repaired += 1;
            assert!(!composed(&reference));
        }
        live.process_batch(&recs[1000..]);
        reference.process_batch(&recs[1000..]);
        live.finish();
        reference.finish();
        assert_eq!(
            live.collect(),
            reference.collect(),
            "post-repair results diverged at {budget} bits"
        );
    }
    assert!(formed > 0, "no budget in the sweep formed a composed pair");
    assert!(
        repaired > 0,
        "no budget in the sweep exercised the repair path ({formed} pairs formed)"
    );
}

/// Whether `budget` bits provision `srcs` with every store's `1/shards`
/// worker slice still holding one pair — the condition under which the
/// plane's provisioned constructor (and an install's replan) succeeds.
fn fits(srcs: &[&'static str], budget: u64, shards: usize) -> bool {
    let mut programs: Vec<_> = srcs.iter().map(|s| compiled(s)).collect();
    perfq_core::provision(&mut programs, budget).is_ok_and(|plan| {
        let mut stores = plan.queries.iter().flat_map(|q| &q.stores);
        stores.all(|s| s.shard_geometry(shards).is_ok())
    })
}

/// The smallest budget (bits) under which `srcs` fit at `shards` workers.
fn smallest_fit(srcs: &[&'static str], shards: usize) -> u64 {
    let mut hi = 1u64;
    while !fits(srcs, hi, shards) {
        hi *= 2;
    }
    let mut lo = hi / 2;
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if fits(srcs, mid, shards) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// "The deployment is untouched on error", attacked: `live` attempts (and
/// is refused) an install of `arrival` after 600 records, `control` never
/// tries. The refused install must leave ids, program count and sharing as
/// they were, and ingest must continue (600 more records); the caller
/// classifies the returned error and holds the two drains equal.
fn refused_install_leaves_no_trace(
    live: &mut Plane,
    control: &mut Plane,
    arrival: &'static str,
    what: &str,
) -> InstallError {
    let recs = records(1200);
    live.chunk(&recs[..600]);
    control.chunk(&recs[..600]);
    let before = live.shape();
    let err = live
        .try_install(compiled(arrival))
        .expect_err("the install must be refused");
    assert_eq!(live.shape(), before, "{what}: a refused install left a trace");
    assert_eq!(live.shape(), control.shape(), "{what}");
    live.chunk(&recs[600..1200]);
    control.chunk(&recs[600..1200]);
    err
}

/// The live deployment's final drain equals the never-attempted one's.
fn drains_agree(live: Plane, control: Plane, sort: bool, what: &str) {
    let (got, want) = (live.done(), control.done());
    assert_eq!(got.len(), want.len(), "{what}");
    for (g, w) in got.into_iter().zip(want) {
        assert_eq!(canon(g, sort), canon(w, sort), "{what}: drain diverged");
    }
}

/// The store-dedup pair in the resident set makes "sharing unchanged" a
/// real assertion rather than a comparison of two empty reports.
const RESIDENTS: [&str; 2] = [FIVE_TUPLE_COUNTER, fig2::PER_FLOW_LOSS_RATE.source];

#[test]
fn an_install_the_budget_cannot_hold_is_refused_without_a_trace() {
    for shards in [None, Some(1usize), Some(2), Some(4)] {
        let n = shards.unwrap_or(1);
        let budget = smallest_fit(&RESIDENTS, n);
        let grown = [RESIDENTS[0], RESIDENTS[1], fig2::LATENCY_EWMA.source];
        assert!(!fits(&grown, budget, n), "the scenario needs a full budget");
        let what = format!("budget {budget}, shards {shards:?}");
        let spawn = || Plane::spawn(RESIDENTS.map(compiled).to_vec(), Some(budget), shards);
        let (mut live, mut control) = (spawn(), spawn());
        let err = refused_install_leaves_no_trace(&mut live, &mut control, grown[2], &what);
        assert!(matches!(err, InstallError::Plan(_)), "{what}: {err}");
        drains_agree(live, control, shards.is_some(), &what);
    }
}

#[test]
fn an_install_whose_shard_slice_is_too_small_is_refused_without_a_trace() {
    for shards in [2usize, 4] {
        let grown = [RESIDENTS[0], RESIDENTS[1], fig2::LATENCY_EWMA.source];
        // The residents fit sharded and the grown set fits as whole slices,
        // but one of its `1/shards` worker slices cannot hold a pair.
        let budget = (smallest_fit(&RESIDENTS, shards)..)
            .step_by(64)
            .take(1 << 14)
            .find(|&b| fits(&grown, b, 1) && !fits(&grown, b, shards))
            .expect("a budget between the whole-slice and the shard-slice fit");
        let what = format!("budget {budget}, shards {shards}");
        let spawn = || Plane::spawn(RESIDENTS.map(compiled).to_vec(), Some(budget), Some(shards));
        let (mut live, mut control) = (spawn(), spawn());
        let err = refused_install_leaves_no_trace(&mut live, &mut control, grown[2], &what);
        match &err {
            InstallError::Plan(PlanError::SliceTooSmall { query, .. }) => {
                assert!(!query.is_empty(), "{what}: the error names its query");
            }
            other => panic!("{what}: expected a too-small shard slice, got {other}"),
        }
        drains_agree(live, control, true, &what);
    }
}

#[test]
fn a_failed_durable_attach_refuses_the_install_and_burns_its_id() {
    // The default spill config never spills this trace, so the only backend
    // traffic is the attach itself — the fault lands on its first operation.
    let durable = |backend: &SharedBackend| Durability::new(backend.clone());
    let spawn = |backend: &SharedBackend| {
        let mut m = MultiRuntime::new(RESIDENTS.map(compiled).to_vec());
        m.enable_durability(durable(backend)).expect("healthy attach");
        m
    };
    let handle = Arc::new(Mutex::new(FaultBackend::new()));
    let faulty: SharedBackend = handle.clone();
    let healthy: SharedBackend = shared(MemBackend::new());
    let mut live = Plane::Single(spawn(&faulty));
    let mut control = Plane::Single(spawn(&healthy));
    {
        let mut h = handle.lock().expect("fault mutex");
        let next_op = h.ops();
        h.arm(next_op, 0);
    }
    let arrival = fig2::LATENCY_EWMA.source;
    let err = refused_install_leaves_no_trace(&mut live, &mut control, arrival, "failed attach");
    assert!(matches!(err, InstallError::Io(_)), "{err}");
    assert!(handle.lock().expect("fault mutex").died(), "the fault fired");

    // Restart the backend; the retry takes a fresh id — the failed attempt's
    // half-written `p2_` files are never reopened.
    handle.lock().expect("fault mutex").heal();
    let retried = live.install(compiled(arrival));
    let fresh = control.install(compiled(arrival));
    assert_eq!((fresh, retried), (2, 3), "the refused install burnt id 2");
    let tail = &records(1500)[1200..];
    live.chunk(tail);
    control.chunk(tail);
    drains_agree(live, control, false, "after the retried install");
}

/// Two aggregations that are one store *inside* one program. Compilation
/// seeds each store's placement hash by its query index, so identical text
/// alone never pairs within a program; aligning the second store's seed with
/// the first's makes the two physically identical, which is all the sharing
/// pass asks.
fn twin_counters(opts: CompileOptions) -> CompiledProgram {
    let mut c = perfq_core::compile_query(
        "R1 = SELECT COUNT GROUPBY srcip, dstip\nR2 = SELECT COUNT GROUPBY srcip, dstip\n",
        &fig2::default_params(),
        opts,
    )
    .expect("twin counters compile");
    let seed = c.stores[0].as_ref().expect("R1 aggregates").hash_seed;
    c.stores[1].as_mut().expect("R2 aggregates").hash_seed = seed;
    c
}

/// Program 0 owns the 5-tuple counter store, program 1 (loss rate) aliases
/// it as its `R1`, and program 2 aliases its own `R1` as its `R2`.
fn owner_alias_and_twins(opts: CompileOptions) -> Vec<CompiledProgram> {
    let compile = |src| {
        perfq_core::compile_query(src, &fig2::default_params(), opts).expect("catalog compiles")
    };
    vec![
        compile(FIVE_TUPLE_COUNTER),
        compile(fig2::PER_FLOW_LOSS_RATE.source),
        twin_counters(opts),
    ]
}

/// `uninstall(id)` is the poll contract applied one last time: it returns
/// what `poll(id)` returned an instant earlier — for a departing owner, a
/// departing alias (read through its owner's live store) and a program
/// holding a within-program alias, on the inline and the sharded plane, with
/// and without a budget — and the survivors keep running.
#[test]
fn uninstall_returns_the_poll_taken_just_before_it() {
    let recs = records(1500);
    for (shards, budget) in [
        (None, None),
        (None, Some(32 * MBIT)),
        (Some(2), None),
        (Some(2), Some(32 * MBIT)),
    ] {
        for departing in 0..3 {
            let what = format!("program {departing} leaves (budget {budget:?}, shards {shards:?})");
            let programs = owner_alias_and_twins(CompileOptions::default());
            let mut plane = Plane::spawn(programs, budget, shards);
            assert_eq!(plane.shared_stores(), [(0, 1), (2, 2)], "{what}");
            plane.chunk(&recs[..900]);
            let id = plane.ids()[departing];
            let polled = plane.poll(id);
            // The table a shared store serves: the owner's own, the loss
            // rate's `R1`, the twins' `R2`.
            let served = [0, 0, 1][departing];
            assert!(!polled.tables[served].rows.is_empty(), "{what}");
            let sort = shards.is_some();
            assert_eq!(
                canon(plane.uninstall(id), sort),
                canon(polled, sort),
                "{what}"
            );
            plane.chunk(&recs[900..]);
            assert_eq!(plane.done().len(), 2, "{what}");
        }
    }
}

/// The same identity on a durable deployment whose reads cross the spill
/// tier (64-pair caches, a high-water mark of 8), where the uninstall also
/// publishes what it returned: `retired(id)` reads the poll back.
#[test]
fn a_durable_uninstall_retires_the_poll_taken_just_before_it() {
    let recs = records(1500);
    let opts = CompileOptions {
        cache_pairs: 64,
        ..CompileOptions::default()
    };
    for departing in 0..3 {
        let mut multi = MultiRuntime::new(owner_alias_and_twins(opts));
        let spill = SpillConfig {
            high_water: 8,
            group_commit_bytes: 256,
        };
        multi
            .enable_durability(Durability::new(shared(MemBackend::new())).with_spill(spill))
            .expect("in-memory attach");
        multi.process_batch(&recs[..900]);
        let evictions = multi.runtimes()[0]
            .store_stats(0)
            .expect("the counter store")
            .evictions;
        assert!(evictions > 20, "the owner spilled ({evictions} evictions)");
        let id = multi.ids()[departing];
        let polled = multi.poll(id).expect("id is live");
        assert_eq!(
            multi.uninstall(id),
            Some(polled.clone()),
            "program {departing}"
        );
        let retired = multi.retired(id).expect("in-memory read");
        assert_eq!(retired, Some(polled), "program {departing}");
        multi.process_batch(&recs[900..]);
        multi.finish();
        assert_eq!(multi.collect().len(), 2);
    }
}
